(** Uniform selection of TCP congestion-control variants.

    The paper compares RR against Tahoe, (New-)Reno and SACK; the bench
    adds Relentless (exact decrease-by-losses) and Relative Rate
    Reduction (adjustable backoff). Reno, New-Reno, Relentless and RRR
    are the rules of one machine, {!Tcp.Newreno}. This module gives
    experiments, examples and the CLI one switch point for all of
    them. *)

type t = Tahoe | Reno | Newreno | Sack | Fack | Vegas | Rr | Relentless | Rrr

(** All variants: the paper's, in presentation order, then the
    bench additions. *)
val all : t list

(** [name t] is the lowercase identifier (["rr"], ["newreno"], …). *)
val name : t -> string

(** [of_string s] parses {!name} output (case-insensitive). *)
val of_string : string -> (t, string) result

(** [create t ~engine ~params ~flow ~emit ()] builds a sender agent of
    the given variant. Check the agent's [wants_sack] to configure the
    peer receiver. *)
val create :
  t ->
  engine:Sim.Engine.t ->
  params:Tcp.Params.t ->
  flow:int ->
  emit:(Net.Packet.t -> unit) ->
  unit ->
  Tcp.Agent.t

(** [create_inspected t …] is {!create} plus the RR introspection handle
    when [t] is {!Rr} ([None] otherwise) — the hook auditors need to
    check RR's recovery invariants ([actnum], [ndup], exit point). *)
val create_inspected :
  t ->
  engine:Sim.Engine.t ->
  params:Tcp.Params.t ->
  flow:int ->
  emit:(Net.Packet.t -> unit) ->
  unit ->
  Tcp.Agent.t * Rr.handle option

(** Uniform handle over a TCP sender of any congestion-control variant.

    Variants ({!Tahoe}, {!Newreno} for Reno, New-Reno, RRR and
    Relentless, {!Sack}, {!Fack}, {!Vegas}, and [Core.Rr]) return this
    record from their [create] functions; experiment code and
    applications drive senders exclusively through it, plus the exposed
    {!Sender_common.t} for statistics and white-box tests. [Core.Variant]
    is the uniform way to pick one by name. *)

type t = {
  name : string;  (** variant name, e.g. ["newreno"] *)
  flow : int;
  deliver_ack : Net.Packet.t -> unit;
      (** the network delivers returning ACKs here *)
  base : Sender_common.t;  (** shared state, for stats/metrics/tests *)
  wants_sack : bool;  (** whether the peer receiver must generate SACKs *)
}

(** [create ~name ~wants_sack base recv_ack] is the agent over [base].
    Its [deliver_ack] refuses a data packet with [Invalid_argument] and
    hands every ACK packet to [recv_ack] until the flow completes. Each
    variant's constructor ends here. *)
val create :
  name:string ->
  wants_sack:bool ->
  Sender_common.t ->
  (Net.Packet.t -> unit) ->
  t

(** [start t] begins transmitting whatever application data is
    available. *)
val start : t -> unit

(** [supply_data t ~segments] makes [segments] more segments available
    to send (finite source) and tries to transmit. *)
val supply_data : t -> segments:int -> unit

(** [supply_infinite t] switches to an unbounded source (the paper's
    persistent FTP) and tries to transmit. *)
val supply_infinite : t -> unit

(** One fully-resolved point of a sweep grid, and the table of axes
    that spans such grids.

    A job is everything needed to run one deterministic
    {!Experiments.Scenario}: the TCP variant, the gateway discipline,
    the topology, the injected data/ACK loss rates, the fault and
    cross-traffic knobs, the RTO estimator, the RRR level, the seed,
    the horizon, the flow count and the receiver window. Being a plain
    value with a canonical JSON form, a job can be hashed (the cache
    key), shipped to a forked worker, and stored next to its result.

    Every field but the last four is a sweep {e axis}, described once
    in {!axes}: its JSON key, its [rr-sim sweep] flag, its point-label
    clause and report column, the jobs it multiplies and the values it
    accepts. {!point_label}, {!to_json}, {!Sweep.val-grid}'s expansion, the
    sweep report's columns and the sweep flags are all folds over that
    table, so a new axis is a field, one table entry and its use in
    {!scenario}.

    {!scenario} is the one place a job becomes an
    {!Experiments.Scenario.spec}, and {!measure} the one place a finished
    run becomes per-flow metrics: [rr-sim sweep] composes them as {!run},
    while [rr-sim run] and the [rr-sim audit] sweep build a job from
    their flags and set on the spec only what a job does not describe. *)

type gateway = Droptail of int | Red of int  (** payload = buffer, packets *)

(** The network the job's flows cross: the paper's dumbbell, a parking
    lot of k chained bottlenecks ({!Net.Topology.parking_lot}) with
    every flow running end to end, or a fat tree of k pods
    ({!Net.Topology.fat_tree}) with [flows] hosts per pod, each sending
    one flow. *)
type topology =
  | Dumbbell
  | Parking_lot of int  (** payload = hops, >= 1 *)
  | Fat_tree of int  (** payload = pods, >= 2 *)

type t = {
  variant : Core.Variant.t;
  gateway : gateway;
  topology : topology;
  uniform_loss : float;  (** data-drop rate at R1 *)
  ack_loss : float;  (** ACK-drop rate on the reverse path *)
  reorder : float;
      (** packet-reordering probability at the bottleneck, 0 = off
          (hold-back bound {!Faults.Spec.default_reorder_extra}) *)
  flap_period : float;
      (** trunk-outage period in seconds, 0 = off; each outage lasts
          {!flap_down_for} with the buffer held *)
  cbr_share : float;
      (** CBR cross-traffic load as a fraction of the bottleneck
          capacity, 0 = off (occupies one extra topology slot, so not
          on a fat tree) *)
  estimator : Tcp.Rto.estimator;
      (** the senders' RTO prediction algorithm
          ({!Tcp.Rto.Jacobson} = classic default) *)
  rrr_level : float;
      (** {!Tcp.Params.t.rrr_level} for {!Core.Variant.Rrr} senders;
          [0.5] = the Reno-equivalent default; other variants ignore
          it (and it never appears in their point labels) *)
  asym_ratio : float;
      (** forward:reverse trunk rate ratio ([asym:R] spec clause),
          0 = off; dumbbell only *)
  handover_period : float;
      (** seconds between cellular handovers ([handover:] spec
          clause), 0 = off; each handover darkens the trunk for
          {!handover_gap} and resumes at the next
          {!Faults.Spec.default_handover_levels} cell rate *)
  seed : int64;
  duration : float;  (** seconds *)
  flows : int;
      (** same-variant flows sharing the bottleneck (on a fat tree:
          hosts per pod) *)
  rwnd : int;  (** receiver advertised window, segments *)
}

(** [flap_down_for] is the fixed outage length of the [flap_period]
    axis: 300 ms. *)
val flap_down_for : float

(** [handover_gap] is the fixed dark-gap length of the
    [handover_period] axis: 400 ms. *)
val handover_gap : float

val gateway_name : gateway -> string

(** [topology_name t] is the sweep-axis spelling: ["dumbbell"],
    ["parking-lot:<hops>"] or ["fat-tree:<pods>"]. *)
val topology_name : topology -> string

(** [gateway_of_string s] parses [droptail[:BUFFER]] or
    [red[:BUFFER]] (buffers 8 and 25 when omitted; BUFFER >= 1). *)
val gateway_of_string : string -> (gateway, string) Stdlib.result

(** [topology_of_string s] parses [dumbbell], [parking-lot[:HOPS]]
    (2 hops when omitted, 1 <= HOPS <= {!max_hops}) or
    [fat-tree[:PODS]] (2 pods when omitted, 2 <= PODS <= {!max_pods}).
    A count past its cap is an [Error] naming the cap. *)
val topology_of_string : string -> (topology, string) Stdlib.result

(** The largest parking lot a topology string may ask for: 64 hops. *)
val max_hops : int

(** The largest fat tree a topology string may ask for: 64 pods. *)
val max_pods : int

(** [default] is the first job of the default grid: Reno over the
    paper's drop-tail:8 dumbbell at 2% data loss, every other axis at
    its off value, seed 7, 2 flows for 20 s with a 20-segment window.
    An optional axis's value here is the one that leaves no trace in
    point labels and reports. *)
val default : t

(** {1 Axes} *)

(** One sweep axis over values of type ['a]. *)
type 'a axis = {
  key : string;  (** canonical JSON key *)
  flag : string;  (** [rr-sim sweep] option name, without dashes *)
  docv : string;
  doc : string;
  default : string;
      (** the flag's default as [--help] prints it; parsed by
          {!parse_values}, it is the axis's value list in a grid that
          does not bind the axis *)
  parse : string -> ('a, string) Stdlib.result;  (** one value *)
  json : 'a -> Json.t;
  label : string;  (** point-label clause prefix; [""] = the bare value *)
  show : 'a -> string;  (** the value in a point label *)
  header : string;  (** report column header *)
  cell : 'a -> string;  (** report cell *)
  optional : bool;
      (** the clause and column appear only for points off the
          {!val-default} job's value; a non-optional axis always shows *)
  multiplies : t -> bool;
      (** the jobs the axis expands ([rrr_level]: the [rrr] variant's,
          as the grid sets axes in table order); the others keep the
          {!val-default} value and print ["-"] in its column *)
  check : t -> string option;
      (** [Some reason] if the job's value is invalid. It sees the
          whole job, so cross-axis rules (asym needs the dumbbell) fit. *)
  get : t -> 'a;
  set : 'a -> t -> t;
}

type packed = Axis : 'a axis -> packed

(** The typed axes, one per field of {!t} from [variant] to
    [handover_period]. *)
module Axes : sig
  val variant : Core.Variant.t axis
  val gateway : gateway axis
  val topology : topology axis
  val uniform_loss : float axis
  val ack_loss : float axis
  val reorder : float axis
  val flap_period : float axis
  val cbr_share : float axis
  val estimator : Tcp.Rto.estimator axis
  val rrr_level : float axis
  val asym_ratio : float axis
  val handover_period : float axis
end

(** [axes] is the table, in canonical JSON order, which is also the
    grid's expansion order (variant-major). *)
val axes : packed list

(** [column_axes] is {!axes} in sweep-report column order. *)
val column_axes : packed list

(** [parse_values axis text] parses a comma-separated value list; empty
    items are skipped, as a cmdliner list would. *)
val parse_values : 'a axis -> string -> ('a list, string) Stdlib.result

(** [visible axis job]: the axis labels [job]'s point (and opens its
    report column): it multiplies the job, and it is not optional or the
    job leaves the {!val-default} value. *)
val visible : 'a axis -> t -> bool

(** [cell axis job] is the job's report cell, ["-"] where the axis
    does not multiply the job. *)
val cell : 'a axis -> t -> string

(** [validate job] checks the fields outside the table ([duration]
    finite and >= 0; [flows], [rwnd] and the gateway buffer >= 1), then
    runs every axis's check. [flags] renames an axis's flag by its
    [key], for a command whose flags differ from [sweep]'s.
    @raise Invalid_argument naming the first failing field's flag and
    value, e.g. ["--loss 1.5: must be within [0, 1]"] or
    ["--buffer 0: must be >= 1"]. *)
val validate : ?flags:(string * string) list -> t -> unit

(** {1 Identity} *)

(** [point_label job] names the grid point the job belongs to —
    everything but the seed — e.g. ["rr/droptail:8/loss 2%/ack 0%"].
    Jobs of one point differing only in seed aggregate together. *)
val point_label : t -> string

(** [digest job] is the content-addressed cache key: the hex MD5 of
    the job's canonical JSON (plus a schema tag, so incompatible cache
    entries from older layouts never alias). *)
val digest : t -> string

(** [to_json job] is the canonical JSON: every axis under its key, in
    table order, then seed, duration, flows and rwnd. *)
val to_json : t -> Json.t

(** {1 Execution} *)

type flow_metrics = {
  flow : int;
  goodput_bps : float;  (** cumulative-ACK goodput over the whole run *)
  drops : int;
  timeouts : int;
  retransmits : int;
  fast_retransmits : int;
}

type result = {
  job : t;
  flow_metrics : flow_metrics list;  (** one per flow, in flow order *)
  aggregate_goodput_bps : float;  (** sum over flows *)
  jain : float;  (** fairness index over per-flow goodputs *)
  audit_checks : int;  (** invariant evaluations during the run *)
  audit_violations : int;  (** failed invariant checks (0 = healthy) *)
}

(** [scenario ?cross job] is the job's scenario: its gateway and
    topology, its loss rates, its fault axes as a {!Faults.Spec.t}, its
    CBR share as a source, its RTO estimator, RRR level and receiver
    window, seed and horizon. [cross] appends sources after the job's
    own CBR source; like it, each takes a topology slot. *)
val scenario : ?cross:Experiments.Scenario.cross list -> t -> Experiments.Scenario.spec

(** [measure job t] reduces a finished run of (a spec derived from)
    [job] to metrics: one row per TCP flow of the run, which on a fat
    tree is pods × [flows]. *)
val measure : t -> Experiments.Scenario.t -> result

(** [run job] is [measure job (Scenario.run (scenario job))]: the
    scenario under the runtime auditor, reduced to metrics.
    Deterministic: equal jobs yield equal results, whichever process
    runs them. *)
val run : t -> result

val result_to_json : result -> Json.t

(** [result_of_json job json] decodes a cached result. The stored
    job is ignored in favour of [job] (the cache key already proved
    they match). A negative count or goodput is an [Error], as is any
    number {!Json.to_int} or {!Json.to_float} refuses. *)
val result_of_json : t -> Json.t -> (result, string) Stdlib.result

(** A flock: tens of thousands of TCP flows in flat arrays.

    The per-flow {!Agent} machinery allocates a closure web per sender —
    fine for the paper's handful of flows, ruinous at 50k. A flock keeps
    every sender's and receiver's state in plain arrays indexed by flow
    slot and drives them all through two shared delivery functions
    (plug {!deliver_data} / {!deliver_ack} into
    {!Net.Topology.set_data_dispatch} / [set_ack_dispatch]), one shared
    periodic timeout scan, and O(1) extra allocation per packet. Memory
    is O(flows), independent of duration.

    The congestion control is New-Reno-shaped AIMD: slow start,
    congestion avoidance, fast retransmit on [dupack_threshold]
    duplicates, fast recovery with partial-ACK retransmission, and an
    exponentially backed-off Jacobson RTO checked by the periodic scan
    (so timeout resolution is the scan interval, not a per-flow timer).
    Receivers ACK every segment cumulatively and hold out-of-order
    segments in a 63-bit window bitmap, which caps the usable window at
    63 segments beyond the cumulative point — far above a fair share
    when flow count is the experiment's point. It is deliberately not
    one of the paper's instrumented variants; scale studies that need
    variant fidelity sample a sub-population with real {!Agent}s. *)

type t

(** [create ~engine ~params ~flows ~inject_data ~inject_ack ()] lays
    out [flows] sender/receiver slots. [inject_data]/[inject_ack] put a
    packet on the network (e.g. {!Net.Topology.inject_data}).
    [params.max_burst], [dupack_threshold], window and RTO fields are
    honoured; SACK, delayed-ACK, limited-transmit and smooth-start
    fields are ignored.

    @raise Invalid_argument when [flows < 1]. *)
val create :
  engine:Sim.Engine.t ->
  params:Params.t ->
  flows:int ->
  inject_data:(flow:int -> Net.Packet.t -> unit) ->
  inject_ack:(flow:int -> Net.Packet.t -> unit) ->
  unit ->
  t

(** [start t ?stagger ()] opens every flow with an unbounded source
    (the paper's persistent FTP). Flow [i] starts at
    [i * stagger / flows] (default [stagger = 0.]: all at time 0, via a
    single chained event rather than one event per flow), and the
    timeout scan fires every 50 ms. *)
val start : t -> ?stagger:float -> unit -> unit

(** [deliver_data t packet] runs the receiver slot of the packet's
    flow: cumulative ACK generation and the reorder bitmap. *)
val deliver_data : t -> Net.Packet.t -> unit

(** [deliver_ack t packet] runs the sender slot of the packet's flow. *)
val deliver_ack : t -> Net.Packet.t -> unit

(** {1 Per-flow observability} *)

val flows : t -> int

(** [acked_segments t flow] is the flow's cumulatively acknowledged
    segment count — the goodput numerator. *)
val acked_segments : t -> int -> int

val retransmits : t -> int -> int

val cwnd : t -> int -> float

(** [goodput_bps t flow ~duration] is acked payload bits per second. *)
val goodput_bps : t -> int -> duration:float -> float

(** {1 Aggregates} *)

val total_acked_segments : t -> int

val total_retransmits : t -> int

val total_timeouts : t -> int

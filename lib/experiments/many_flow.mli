(** Many-flow scale scenario (beyond the paper).

    Drives a {!Tcp.Flock} — flat-array NewReno-shaped senders and
    receivers — through a six-link aggregate dumbbell built on
    {!Net.Topology}, then summarises the per-flow goodput stream with
    {!Stats.Welford} and a bounded {!Stats.Reservoir}. The whole run is
    O(flows) memory and completes 50k flows x 60 s in seconds, where
    the per-flow {!Scenario} machinery would not. *)

type outcome = {
  flows : int;
  duration : float;  (** seconds *)
  bottleneck_bps : float;
  aggregate_goodput_bps : float;  (** sum of per-flow goodputs *)
  goodput : Stats.Welford.t;  (** streaming per-flow goodput moments *)
  quantiles : (float * float) list;
      (** (quantile, goodput bps) pairs, ascending, from the reservoir
          sample *)
  jain : float;  (** fairness index over every flow, computed streaming *)
  delivered_segments : int;
  retransmits : int;
  timeouts : int;
  drops : int;
}

(** [spec ~bottleneck_bps ~buffer] is the aggregate dumbbell: hosts
    [src], [dst] and gateways [r1], [r2], with every flow sharing the
    [gateway]/[reverse_gateway] trunks. Exposed for tests. *)
val spec : bottleneck_bps:float -> buffer:int -> Net.Topology.spec

(** [run ()] executes the scenario on a 100 Mbps bottleneck, flow
    starts staggered over 1 s. Defaults: 50 000 flows, 60 s,
    1024-packet drop-tail buffer, default TCP parameters with
    [rwnd = 20].

    @raise Invalid_argument when [flows < 1] or [duration <= 0]. *)
val run :
  ?flows:int ->
  ?duration:float ->
  ?seed:int64 ->
  ?buffer:int ->
  ?params:Tcp.Params.t ->
  unit ->
  outcome

val report : outcome -> string

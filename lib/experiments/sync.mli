(** §3.3 motivation — global synchronization under drop-tail vs. RED.

    Drop-tail gateways drop bursts of arrivals when the buffer fills,
    hitting many flows within one RTT and synchronizing their back-offs
    (Zhang, Shenker & Clark's observation, the paper's [22]); RED's
    randomized early drops spread losses over flows and time. This
    experiment runs the same ten-flow workload over both gateways and
    reports:

    - a {b synchronization index}: losses are clustered into events
      (gaps < one RTT); the index is the mean fraction of active flows
      hit per event — 1.0 means every loss event hits everybody;
    - bottleneck {b utilization} (may slightly exceed 100% because the
      backlog queued at the measurement-window start also drains);
    - {b Jain's fairness index} over per-flow goodputs. *)

(** One row per gateway, labelled: drop-tail, then RED, both with a
    25-packet buffer. Each cell measures, in this order, the
    synchronization index, the loss events, the utilization
    (aggregate goodput / bottleneck rate), Jain's index and the
    coefficient of variation of the bottleneck queue length
    (synchronized flows make the queue saw-tooth in unison). *)
type outcome = {
  duration : float;
  table : (string * Net.Dumbbell.gateway) Variant_table.t;
}

(** [run ()] measures drop-tail and RED for the given variants (default
    Reno and RR). *)
val run :
  ?variants:Core.Variant.t list ->
  ?seed:int64 ->
  ?duration:float ->
  unit ->
  outcome

(** [report outcome] renders the comparison. *)
val report : outcome -> string

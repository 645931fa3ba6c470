(** §2.3 — effect of ACK losses on congestion recovery.

    RR clocks its recovery off returning duplicate ACKs, so lost ACKs
    look like further data losses and cause (only) a linear [actnum]
    back-off; New-Reno loses a new-data transmission for every two lost
    dup ACKs and stalls sooner; SACK is least sensitive but still times
    out when the ACK of a retransmission is lost. The paper argues RR
    degrades gracefully ("rare ACK losses cause only a slight negative
    effect"); this experiment quantifies that.

    Setup: one flow recovers from a forced 4-loss burst while the
    reverse path drops ACKs uniformly at rate [a]; effective throughput
    around the recovery episode and timeout counts are averaged over
    several seeds per point. *)

(** One row per ACK-loss rate; each run measures goodput (bits/s) and
    timeouts. *)
type outcome = float Variant_table.t

(** [run ()] sweeps ACK-loss rates (default 0 … 0.3) for New-Reno, SACK
    and RR. *)
val run :
  ?rates:float list ->
  ?variants:Core.Variant.t list ->
  ?seeds:int64 list ->
  unit ->
  outcome

(** [report outcome] renders the sweep. *)
val report : outcome -> string

(** §2.3 — effect of ACK losses on congestion recovery.

    RR clocks its recovery off returning duplicate ACKs, so lost ACKs
    look like further data losses and cause (only) a linear [actnum]
    back-off; New-Reno loses a new-data transmission for every two lost
    dup ACKs and stalls sooner; SACK is least sensitive but still times
    out when the ACK of a retransmission is lost. The paper argues RR
    degrades gracefully ("rare ACK losses cause only a slight negative
    effect"); this experiment quantifies that.

    Setup: one flow recovers from the Figure 5 burst ({!Fig5.scenario})
    of 4 losses while the reverse path drops ACKs uniformly at rate
    [a]; effective throughput over 4 s from the first data drop
    ({!Fig5.measure}) and timeout counts are averaged over several
    seeds per point. *)

(** One row per ACK-loss rate; each run measures goodput (bits/s) and
    timeouts. *)
type outcome = float Variant_table.t

(** [run ()] sweeps ACK-loss rates (default 0 … 0.3) for New-Reno, SACK
    and RR. *)
val run : ?rates:float list -> ?seeds:int64 list -> unit -> outcome

(** [report outcome] renders the sweep. *)
val report : outcome -> string

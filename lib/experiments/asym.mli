(** Asymmetric ACK channels (beyond the paper; ROADMAP item 4,
    PAPERS.md cs/9809066).

    Satellite and cable downlinks commonly pair a fast forward path
    with a reverse channel tens of times slower. TCP's self-clock rides
    the ACK stream: once the reverse trunk serializes ACKs slower than
    the forward trunk emits segments, the reverse queue fills, ACKs are
    dropped wholesale, and the sender's window grows in lurches driven
    by cumulative ACKs (compression) rather than a smooth clock. This
    experiment re-rates the dumbbell's reverse trunk to [1/R] of the
    forward bottleneck through the [asym:R] spec clause (ratios 1:1 →
    50:1) and extends the §2.3 ACK-loss and two-way experiments, whose
    reverse-path stress was binary. *)

(** One row per forward:reverse ratio. Each run measures the mean
    per-flow goodput (bits/s), the RTO expiries summed across flows and
    the reverse-gateway ACK drops. *)
type outcome = float Variant_table.t

(** [run ()] measures New-Reno, SACK and RR across forward:reverse
    ratios 1 to 200 (the paper-path collapse point sits past 50:1,
    where even cumulative-ACK thinning can no longer cover the
    reverse-channel deficit), over seeds 7 and 29. *)
val run : unit -> outcome

(** [report outcome] renders the comparison. *)
val report : outcome -> string

(** Bulk transfer among short-flow "web mice" (beyond the paper).

    The paper's background load is persistent FTPs; real bottlenecks
    mostly carry short, bursty web transfers ({!Workload.Mice}) whose
    slow-start bursts arrive at random and keep the queue churning.
    This experiment runs one bulk flow of each variant through a
    mice-dominated bottleneck and reports both sides of the bargain:
    the bulk flow's goodput {e and} the mice's mean completion time —
    a recovery scheme that monopolizes the queue would win the first
    while inflating the second. *)

(** One row. Each cell measures, in this order: the bulk flow's
    goodput (bits/s) and RTO expiries, the bursts completed across all
    mice and their mean completion time in seconds. *)
type outcome = unit Variant_table.t

(** [run ()] measures New-Reno, SACK and RR as the bulk flow against 2
    New-Reno mice sources, over seeds 7 and 31. *)
val run : unit -> outcome

(** [report outcome] renders the comparison. *)
val report : outcome -> string

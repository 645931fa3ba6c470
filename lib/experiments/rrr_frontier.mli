(** RRR's fairness-vs-throughput frontier across its backoff level
    (ROADMAP item 3 remaining depth).

    RRR (relative rate reduction, arxiv 1707.07218) parameterizes the
    multiplicative decrease: each congestion event scales the window by
    [1 - level], so [0.5] is the Reno half-cut and smaller levels back
    off more gently. The model predicts steady-state throughput
    [sqrt((2-l)/(2*l*p))] — monotone in gentleness — but gentleness is
    exactly what competing Reno-style flows pay for. This experiment
    quantifies both sides of that trade per level: aggregate throughput
    and Jain fairness inside a homogeneous RRR pod, and the
    goodput share one RRR flow takes against Reno competitors. *)

(** One row per backoff level l ([Tcp.Params.rrr_level]) 0.1, 0.3,
    0.5, 0.7 and 0.9, and one variant, RRR. Each cell runs the 4-flow
    RRR pod, then one RRR flow among 3 Renos, and measures, in this
    order: the pod's summed goodput (bits/s) and Jain index, the lone
    RRR flow's goodput and its Reno competitors' mean goodput. *)
type outcome = float Variant_table.t

(** [run ()] sweeps the five levels over seeds 7 and 29. *)
val run : unit -> outcome

(** [report outcome] renders the frontier. *)
val report : outcome -> string

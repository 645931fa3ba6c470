(** §1's Vegas decomposition claim (Hengartner, Bolliger & Gross — the
    paper's reference [8]): "the performance gain of TCP Vegas over TCP
    Reno is due mainly to TCP Vegas' new techniques for slow-start and
    congestion recovery … not the innovative congestion-avoidance
    mechanism."

    The Vegas implementation exposes its three mechanisms independently,
    so the claim is directly testable: the 3-loss Figure 5 burst
    ({!Fig5.run}) is run for Reno, full Vegas, Vegas with only the
    recovery mechanism (fine-grained retransmission), and Vegas with
    only the congestion-avoidance mechanism, one row each, labelled
    ["reno"], ["vegas (full)"], ["vegas recovery only"] and
    ["vegas avoidance only"]. If [8] is right — and the paper's premise
    holds — the recovery-only configuration captures most of full
    Vegas' gain over Reno, while the avoidance-only one behaves like
    Reno. *)

(** [run ()] executes the four configurations. *)
val run : ?seed:int64 -> unit -> Fig5.outcome

(** [report outcome] renders the decomposition. *)
val report : Fig5.outcome -> string

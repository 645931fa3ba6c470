(** Smooth-Start (the paper's reference [21]) — reducing the slow-start
    overshoot that creates multi-loss windows.

    With an unbounded advertised window, slow start doubles straight
    through the path capacity and dumps a burst of losses into the
    gateway — the very event §1 says robust recovery exists for. The
    cited Smooth-Start refinement damps growth to half rate above
    [ssthresh/2]. This experiment runs a single flow with and without
    the refinement and reports losses in the start-up phase, timeouts,
    and longer-horizon goodput, for both RR and New-Reno senders. *)

(** One row per Smooth-Start setting, off then on. Each cell measures
    goodput (bits/s) over the whole 20 s run, drops during the first
    5 s and timeouts. *)
type outcome = bool Variant_table.t

(** [run ()] measures the 2×2 grid (variant × smooth-start). *)
val run : ?variants:Core.Variant.t list -> ?seed:int64 -> unit -> outcome

(** [report outcome] renders the grid. *)
val report : outcome -> string

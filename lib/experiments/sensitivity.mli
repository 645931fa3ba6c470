(** Environment-sensitivity sweep: does the paper's headline ordering —
    RR ≥ New-Reno on bursty loss, close to SACK — survive away from the
    single Table 3 operating point?

    The 6-loss Figure 5 burst ({!Fig5.scenario}) is re-run across a grid
    of gateway buffer sizes and bottleneck propagation delays, its
    goodput measured over 15 RTTs from the first drop ({!Fig5.measure});
    each cell reports the RR/New-Reno and RR/SACK goodput ratios. A
    reproduction that only holds at one parameter point is a
    coincidence; this sweep is the robustness check. *)

type cell = {
  buffer : int;  (** gateway buffer, packets *)
  bottleneck_delay : float;  (** one-way, seconds *)
  rr_bps : float;
  newreno_bps : float;
  sack_bps : float;
}

type outcome = { cells : cell list }

(** [run ()] sweeps buffers {4, 8, 16, 25} × one-way delays
    {48, 96, 192} ms on the 6-loss burst scenario. *)
val run : ?buffers:int list -> ?delays:float list -> unit -> outcome

(** [report outcome] renders the grid with ratio columns. *)
val report : outcome -> string

(** [ordering_holds outcome] is [true] when RR beats New-Reno in every
    cell — the property the scorecard checks. *)
val ordering_holds : outcome -> bool

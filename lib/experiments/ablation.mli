(** Ablation benches for the three RR design decisions DESIGN.md calls
    out, evaluated on the Figure 5 burst ({!Fig5.run}), one row per
    design:

    - retreat pacing: 1 new segment per 2 dup ACKs (paper) vs per 1
      (right-edge style, which §1 argues "adds fuel to the fire");
    - further-loss back-off: [actnum <- ndup] (linear, paper) vs
      halving;
    - exit window: [cwnd <- actnum] (paper, no big-ACK burst) vs
      [cwnd <- ssthresh] (New-Reno style). *)

(** [run ()] measures the paper design and each single-flag flip on a
    burst of [drops] losses (default 6). *)
val run : ?drops:int -> unit -> Fig5.outcome

(** [report outcome] renders the comparison. *)
val report : Fig5.outcome -> string

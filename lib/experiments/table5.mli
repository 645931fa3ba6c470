(** Table 5 — fairness and interoperability with TCP Reno.

    Twenty connections share the 0.8 Mbps drop-tail bottleneck
    (buffer 25). Nineteen are persistent background flows whose starts
    are staggered 0.5 s apart from t = 0; the targeted connection sends
    a 100 KB file starting at t = 4.8 s. Four cases vary which variant
    the background and the target run (paper §5):

    + Case 1: Reno background, Reno target
    + Case 2: RR background, Reno target
    + Case 3: RR background, RR target
    + Case 4: Reno background, RR target

    Paper shape: a Reno target does {e better} with RR background than
    with Reno background (cases 2 vs 1) — RR does not bully less
    aggressive TCPs; a single RR among Renos (case 4) gets a shorter
    transfer delay and lower loss rate, consuming only bandwidth Reno
    leaves unused (its ≈44 Kbps vs the 40 Kbps fair share, while Reno
    flows each consume ≈24 Kbps of the 800 Kbps). *)

type case = {
  label : string;
  background : Core.Variant.t;
  target : Core.Variant.t;
  transfer_delay : float option;  (** None: unfinished by the deadline *)
  loss_rate : float;  (** target's drops / transmissions *)
  target_bandwidth_bps : float option;  (** 100 KB / delay *)
  mean_background_bandwidth_bps : float;
      (** per-background-flow goodput over the steady-state window *)
  target_timeouts : int;
}

type outcome = { cases : case list; fair_share_bps : float }

(** [run ()] executes all four cases over a 160 s horizon, each
    averaged over eight target-start phases (drop-tail networks of
    equal-RTT flows are deterministic and strongly phase-biased — see
    DESIGN.md). With
    [limited_transmit], all senders use RFC 3042, which restores
    fast-retransmit viability at the tiny per-flow windows this
    20-flow scenario forces. [cases] overrides the paper's four
    (label, background variant, target variant) combinations — the
    bench artifacts reuse the same 20-flow fairness machinery for
    Relentless and RRR against Reno. *)
val run :
  ?seed:int64 ->
  ?limited_transmit:bool ->
  ?cases:(string * Core.Variant.t * Core.Variant.t) list ->
  unit ->
  outcome

(** [report outcome] renders the table plus the §5 bandwidth notes. *)
val report : outcome -> string

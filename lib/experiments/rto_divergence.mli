(** RTO-estimator divergence under link flaps (beyond the paper).

    Jain's divergence study (cs/9809097) layers timeout algorithms from
    no adaptation at all up to mean-plus-deviation smoothing and asks
    when each one diverges — the timeout running away from the RTT it
    is supposed to track. This experiment runs the whole
    {!Tcp.Rto.estimator} family through the PR-4 link-flap fault
    schedule (periodic trunk outages, buffer dropped at cut) with the
    {!Audit.Divergence} monitor attached, and tabulates goodput,
    timeout count, and the two audit findings per estimator:
    RTO-divergence episodes and synchronized timeout bursts across the
    two competing flows.

    The run uses fine timers (200 ms floor) instead of the paper's
    coarse 1 s minimum: on the ~200 ms Table 3 path the classic floor
    clamps every estimator to the same value, and the family's
    differences — the whole point of the comparison — disappear. *)

type cell = {
  estimator : Tcp.Rto.estimator;
  throughput_bps : float;  (** mean aggregate goodput over seeds *)
  timeouts : float;  (** mean RTO expiries, both flows *)
  divergences : float;  (** mean RTO-divergence findings *)
  sync_bursts : float;  (** mean synchronized-timeout bursts *)
  sample : string option;  (** one rendered finding, if any run had one *)
}

(** One cell per estimator, in [estimators] order. *)
type outcome = cell list

(** [run ()] measures a 2 s outage every 6 s over 30 s for every
    estimator in {!Tcp.Rto.estimators} (default), two RR flows per run,
    over seeds 7 and 29 (default). *)
val run :
  ?estimators:Tcp.Rto.estimator list -> ?seeds:int64 list -> unit -> outcome

(** [findings outcome] is the total mean finding count across all
    cells — the experiment's acceptance signal (positive means the
    audit actually observed divergence or synchronization). *)
val findings : outcome -> float

(** [report outcome] renders the comparison. *)
val report : outcome -> string

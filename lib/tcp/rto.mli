(** Retransmission-timeout estimation with a pluggable estimator family,
    exponential backoff and Karn's rule (callers must not feed samples
    from retransmitted segments; the sender base enforces this by
    cancelling the in-progress timing on retransmission).

    The estimators are the layered family of Jain's "Divergence of
    Timeout Algorithms for Packet Retransmissions" (cs/9809097): a
    non-adaptive constant, a mean-only exponential average, and
    mean-plus-deviation tracking at two gain settings. All share the
    same clamping ([min_rto]/[max_rto]) and backoff machinery — only the RTT smoothing gains and the
    estimate-to-timeout rule differ. *)

(** The timeout-prediction algorithm:

    - [Jacobson] — the Jacobson/Karels default: smoothed RTT with gain
      1/8, mean deviation with gain 1/4, timeout [srtt + 4*rttvar];
    - [Fixed] — no adaptation: the timeout stays at [initial_rto]
      (samples are still tracked, so [srtt] remains observable, and
      still clear backoff);
    - [Rfc793] — the original TCP specification: mean-only exponential
      average (gain 1/8), timeout [2 * srtt], no deviation term;
    - [Agile] — mean-plus-deviation with aggressive gains (mean 1/4,
      deviation 1/2): tracks change fast, but forgets variance just as
      fast — the under-damped end of the family. *)
type estimator = Jacobson | Fixed | Rfc793 | Agile

(** Every estimator, in a stable presentation order. *)
val estimators : estimator list

(** [estimator_name e] is the stable lower-case name used by the CLI,
    campaign grids and JSON reports: ["jacobson"], ["fixed"],
    ["rfc793"], ["agile"]. *)
val estimator_name : estimator -> string

(** [estimator_of_string s] parses {!estimator_name} spellings
    (case-insensitively; ["jk"] and ["mean"] are accepted aliases for
    ["jacobson"] and ["rfc793"]). *)
val estimator_of_string : string -> (estimator, string) result

type t

(** [create ~min_rto ~max_rto ~initial_rto ?estimator ()] starts with
    no RTT estimate and an RTO of [initial_rto], which must lie within
    [\[min_rto, max_rto\]]. Clocks are exact: samples and timeouts are
    not rounded to a timer tick. [estimator] defaults to {!Jacobson}.

    @raise Invalid_argument unless
      [0 < min_rto <= initial_rto <= max_rto]. *)
val create :
  min_rto:float ->
  max_rto:float ->
  initial_rto:float ->
  ?estimator:estimator ->
  unit ->
  t

(** [estimator t] is the algorithm [t] was created with. *)
val estimator : t -> estimator

(** [sample t rtt] feeds a round-trip measurement (seconds) and clears
    any backoff. *)
val sample : t -> float -> unit

(** [value t] is the current timeout, backoff included, clamped to
    [\[min_rto, max_rto\]]. *)
val value : t -> float

(** [fine_timeout t] is the estimator's raw timeout prediction for
    fine-grained (sub-RTO) retransmission checks, e.g. Vegas: no
    backoff and no [min_rto] floor, but still capped at [max_rto].
    Before the first sample it is [initial_rto]. *)
val fine_timeout : t -> float

(** [backoff t] doubles the timeout (exponential backoff), saturating at
    [max_rto]. *)
val backoff : t -> unit

(** [srtt t] is the smoothed RTT, if at least one sample arrived. *)
val srtt : t -> float option

(** [rttvar t] is the mean RTT deviation, if estimated. *)
val rttvar : t -> float option

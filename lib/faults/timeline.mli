(** Deterministic time-varying link conditions.

    Where a {!Schedule} flips a link's administrative state, a timeline
    steps its *value* state: serialization rate and/or propagation
    delay, as first-class time-varying quantities. A timeline is a
    finite, strictly time-ordered list of steps; each step changes the
    rate, the delay, or both, taking effect at packet boundaries (see
    {!Net.Link.set_rate}). Timelines are pure data and draw no RNG —
    applying one to a live link is {!Injector.vary_link}'s job, and a
    spec without timelines schedules no events at all, so clean runs
    stay byte-identical. *)

type step = { at : float; rate : float option; delay : float option }

type t

(** [steps t] lists the steps, strictly increasing in [at]. *)
val steps : t -> step list

(** [is_empty t] reports whether the timeline has no steps. *)
val is_empty : t -> bool

(** [of_steps steps] validates and packages explicit steps.

    @raise Invalid_argument unless times are non-negative and strictly
    increasing, every step changes at least one of rate/delay, rates
    are positive and finite, and delays non-negative (NaN is none of
    these). A fade or handover level large enough to overflow the
    rate it scales is refused here. *)
val of_steps : step list -> t

(** [of_string s] parses the textual step form used by
    [rr-sim run --link-schedule]: one ['@']-prefixed step per change,
    ['+']-separated fields, e.g. ["@2+500000@5+-+0.25@8+1000000+0.1"] —
    at [T], set the rate to [RATE] bps and the delay to [DELAY]
    seconds, ["-"] (or an omitted trailing delay) leaving that field
    unchanged. The empty string is the empty timeline. Values are
    absolute, unlike the Spec DSL's relative fade/handover factors, and
    must be finite: [nan] and [inf] are errors. *)
val of_string : string -> (t, string) result

(** [to_string t] renders the canonical textual form; a round-trip
    through {!of_string} is the identity. *)
val to_string : t -> string

(** [fading ~period ~base_bps ~levels ~until ()] models a
    multi-level fading channel: every [period] seconds (starting at
    [period]) the rate steps to
    [base_bps *. l] for the next [l] in the cyclic [levels] list.
    Delays are untouched.

    @raise Invalid_argument unless [period > 0], [base_bps > 0], and
    [levels] is a non-empty list of positive factors. *)
val fading :
  period:float ->
  base_bps:float ->
  levels:float list ->
  until:float ->
  unit ->
  t

(** [handover ~period ~gap ~base_bps ~levels ~until ()] models a
    cellular handover: every [period] seconds the link cuts for [gap]
    seconds (the returned {!Schedule.t}, normally applied with
    [`Drop_queued] for burst loss) and service resumes at the next
    cell's rate — [base_bps] scaled by the cyclic [levels] list, the
    rate step placed at the restore instant (the returned timeline).
    Restores straddling [until] are clamped as in {!Schedule.periodic}.

    @raise Invalid_argument unless [0 < gap < period], [base_bps > 0],
    and [levels] is a non-empty list of positive factors. *)
val handover :
  period:float ->
  gap:float ->
  base_bps:float ->
  levels:float list ->
  until:float ->
  unit ->
  t * Schedule.t

(** Deterministic link up/down timelines.

    A schedule is a finite, strictly time-ordered list of administrative
    transitions for one link, built either from explicit down/up pairs,
    from a periodic flap pattern (the handoff model), or from an
    RNG-driven alternating-renewal process with exponential holding
    times (the outage model). Random schedules draw from an explicit
    {!Sim.Rng.t} stream, so a schedule — and therefore the whole faulted
    run — is reproducible from the simulation seed alone.

    Schedules are pure data: applying one to a live link is
    {!Injector.flap_link}'s job. *)

type transition = { at : float; up : bool }

type t

(** [transitions t] lists the transitions, strictly increasing in
    [at]. The first transition of a non-empty schedule is always a
    down (links start up). *)
val transitions : t -> transition list

(** [is_empty t] reports whether the schedule has no transitions. *)
val is_empty : t -> bool

(** [of_flaps pairs] builds a schedule from explicit
    [(down_at, up_at)] outages, e.g. [[ (2.0, 2.5); (8.0, 9.0) ]].

    @raise Invalid_argument unless each [down_at < up_at], the pairs
    are strictly increasing, and all times are non-negative. *)
val of_flaps : (float * float) list -> t

(** [periodic ~period ~down_for ~until ()] takes the link down for
    [down_for] seconds once every [period] seconds, starting at
    [period], until [until] — e.g. a cellular handoff
    every few seconds. No outage *starts* at or after [until]; an
    outage that straddles [until] still emits its matching restore,
    clamped to [until] itself, so a driver that runs the engine to the
    schedule horizon always executes it — the link never ends a
    schedule administratively down.

    @raise Invalid_argument unless [0 < down_for < period]. *)
val periodic : period:float -> down_for:float -> until:float -> unit -> t

(** [random ~rng ~mean_up:u ~mean_down:d ~until ()] alternates
    exponentially distributed up times (mean [u]) and down times (mean
    [d]), starting up at time 0, truncated as in {!periodic}. Equal
    RNG states yield equal schedules.

    @raise Invalid_argument unless both means are positive. *)
val random :
  rng:Sim.Rng.t -> mean_up:float -> mean_down:float -> until:float -> unit -> t

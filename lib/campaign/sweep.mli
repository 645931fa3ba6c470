(** Declarative multi-run sweep engine.

    A {!type-grid} is the cartesian product of value lists, one per
    {!Job.axes} entry (variants × gateways × topologies × loss rates ×
    … × seeds), expanded to fully-resolved {!Job.t}s that share the
    scalar run parameters. {!run} executes them on the {!Pool}
    (consulting the {!Cache} first), then collapses each grid {e point}
    (same everything but the seed) into cross-seed summary statistics. *)

(** A validated expansion: every job passed {!Job.validate}, and no two
    share a point label and a seed. *)
type grid

(** Values for one axis. *)
type binding = Bind : 'a Job.axis * 'a list -> binding

(** [grid ()] expands the axes, each bound to its labelled list or to
    a {!binding}, or else to its documented default (the table's
    [default], which the CLI shows): Reno / New-Reno / SACK / RR under
    a drop-tail:8 gateway on the dumbbell, 2% data loss and every other
    axis off. The labelled lists are sugar for bindings of the
    corresponding {!Job.Axes}. The jobs share six seeds derived from
    [seed] (default 7) unless [seeds] lists them, and run 2 flows for
    20 s with a 20-segment window.

    @raise Invalid_argument with a message naming the offending flag
    and value: a job {!Job.validate} refuses (a non-finite or negative
    [duration], [flows] or [rwnd] below 1, an axis value that fails its
    check), an axis bound twice, a negative [seed_count], or two jobs
    with the same point label and seed (a repeated value, or two values
    that label alike). *)
val grid :
  ?variants:Core.Variant.t list ->
  ?gateways:Job.gateway list ->
  ?topologies:Job.topology list ->
  ?uniform_losses:float list ->
  ?ack_losses:float list ->
  ?reorders:float list ->
  ?flap_periods:float list ->
  ?cbr_shares:float list ->
  ?estimators:Tcp.Rto.estimator list ->
  ?rrr_levels:float list ->
  ?asym_ratios:float list ->
  ?handover_periods:float list ->
  ?bindings:binding list ->
  ?seeds:int64 list ->
  ?seed:int64 ->
  ?seed_count:int ->
  ?duration:float ->
  ?flows:int ->
  ?rwnd:int ->
  unit ->
  grid

(** [jobs_of_grid grid] is the expansion, ordered variant-major,
    seed-minor. *)
val jobs_of_grid : grid -> Job.t list

(** [sweep_digest grid] identifies the campaign's job set — the hex MD5
    over every job digest, in expansion order. The run journal records
    it so [--resume] can refuse a journal from a different sweep. *)
val sweep_digest : grid -> string

(** One grid point's cross-seed aggregate. *)
type point = {
  point_job : Job.t;  (** a representative job (its seed is the first) *)
  goodput : Stats.Summary.t;  (** aggregate goodput, bps, across seeds *)
  jain : Stats.Summary.t;  (** within-run fairness, across seeds *)
  timeouts : Stats.Summary.t;  (** per-run total, across seeds *)
  retransmits : Stats.Summary.t;
  drops : Stats.Summary.t;
  violations : int;  (** auditor violations summed over seeds *)
}

(** One job that failed every attempt and was quarantined instead of
    aborting the sweep. *)
type quarantined = { q_job : Job.t; q_failure : Pool.failure }

type outcome = {
  grid : grid;
  results : Job.result list;
      (** one per {e settled} job, in expansion order *)
  points : point list;  (** in first-occurrence order *)
  quarantined : quarantined list;
      (** failed jobs, in expansion order; empty on a clean sweep *)
  skipped : int;  (** jobs not run because the sweep was stopped *)
  interrupted : bool;  (** the [stop] predicate fired *)
  cache_hits : int;
  jobs_executed : int;
      (** misses that reached a terminal state (settled or failed) *)
  workers : int;
      (** the most workers the pool had alive at once: at most the
          width, and 0 when none started (every job came from the
          cache, or no worker could be started) *)
  elapsed_seconds : float;  (** wall clock for the whole sweep *)
}

(** [run grid] executes the campaign — and always returns, with partial
    results, whatever the workers do. [cache] enables the on-disk
    result cache; every fresh result is stored the moment it is
    collected, so finished work survives interruption. [journal]
    records each job's terminal state incrementally (see {!Journal});
    the caller owns the handle and closes it. [policy] supervises the
    workers (deadlines, retries, backoff — {!Pool.default_policy} keeps
    the legacy wait-forever behaviour). [stop] is polled as {!Pool.run}
    polls it, at least every half second; once true, in-flight workers
    are SIGKILLed and the remaining jobs are skipped. [jobs] sets the
    pool width (default {!Pool.default_jobs}). [backend] is
    {!Pool.run}'s: the fork pool at every width when omitted, or the
    serial reference loop that tests compare against — the
    deterministic jobs make the report identical but for its worker
    count. [on_progress] is called after every settled job with the
    completed count and the total. *)
val run :
  ?cache:Cache.t ->
  ?journal:Journal.t ->
  ?policy:Pool.policy ->
  ?stop:(unit -> bool) ->
  ?jobs:int ->
  ?backend:Pool.backend ->
  ?on_progress:(completed:int -> total:int -> unit) ->
  grid ->
  outcome

(** [total_violations outcome] sums auditor violations over all jobs. *)
val total_violations : outcome -> int

(** [results_json outcome] is the array of per-job results — the
    deterministic payload (no timings), which a warm-cache re-run
    reproduces byte-for-byte. *)
val results_json : outcome -> Json.t

(** [report outcome] renders the per-point aggregate table plus a
    cache/pool summary line. The table has a column per
    {!Job.column_axes} entry; an optional axis's column appears only
    when some point leaves its default. Quarantined jobs render as an
    extra table (job point, seed, failure) and interruption as a
    trailing note — both only when present, so clean sweeps are
    byte-identical to the pre-supervision format. *)
val report : outcome -> string

(** [report_json outcome] renders the whole campaign (quarantined jobs,
    points and per-job results) as a JSON document (schema
    [rr-sim-sweep/5]), newline-terminated. *)
val report_json : outcome -> string

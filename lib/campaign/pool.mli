(** Supervised worker pool.

    {!run} runs the tasks on up to [jobs] persistent worker processes,
    forked once per call: the supervisor writes each attempt's (index,
    attempt) on an idle worker's task pipe, and the worker marshals the
    result back on its result pipe. Concurrent jobs never share a
    process, so the simulator's global state (engine clocks, RNGs,
    counters) never interleaves between them; consecutive jobs on one
    worker are as independent as consecutive jobs of the serial loop. A
    worker that dies, tears its payload or passes its deadline is
    SIGKILLed, reaped and replaced by a fresh fork when the next attempt
    needs one; when {!run} returns, every worker has left and been
    reaped. If the system refuses a fork (out of descriptors or
    processes), the pool narrows to the workers alive, and with none
    alive the attempt fails.

    Between events the supervisor sleeps in [Unix.select] until the
    first of: a result on a busy worker's pipe, the nearest attempt
    deadline, the earliest backed-off retry (counted only while a
    worker is idle or the pool is below [jobs]), or a fixed half-second
    cap. An attempt waiting for a busy worker sets no wake-up of its
    own, since the result that frees the worker is one, so a batch
    wider than the pool costs the supervisor next to no CPU while it
    waits.

    The caller is a supervisor, not a bystander: every attempt carries
    an optional wall-clock deadline, failed attempts are retried up to a
    bounded budget with deterministic exponential backoff, and a batch
    {e always} settles — a crashed, hung or torn worker becomes a
    {!Failed} slot in the result list instead of aborting its siblings.
    [Unix.select] and [Unix.waitpid] are retried on [EINTR], so signal
    delivery (expected once the CLI installs SIGINT/SIGTERM handlers)
    cannot abort a collect mid-flight, and SIGPIPE is ignored for the
    call, so a task written to a worker that died while idle fails with
    [EPIPE] and goes to another worker.

    Simulation jobs are deterministic and allocate all run state per
    job (engines, RNG states), so the pool returns exactly what the
    serial reference loop would, only sooner. *)

(** [default_jobs ()] is the host's recommended parallelism (core
    count as reported by the runtime). *)
val default_jobs : unit -> int

(** {1 Execution backends} *)

type backend =
  | Serial
      (** the in-process reference loop that tests compare against; no
          parallelism, no deadlines, no chaos *)
  | Forked
      (** up to [jobs] persistent worker processes, forked once per
          {!run} call and fed attempts over pipes, results marshalled
          back; a dead, torn or expired worker is replaced *)

(** {1 Failure taxonomy} *)

(** Why a job failed to settle. *)
type failure =
  | Crashed of string
      (** the worker raised (payload = exception text), died — by
          signal, nonzero exit, or without reporting — or shipped a
          truncated payload (payload = diagnostic) *)
  | Timed_out of float
      (** the worker outlived its wall-clock deadline (payload =
          the configured deadline, seconds) and was SIGKILLed *)
  | Gave_up of int
      (** every attempt of a retry budget failed (payload = total
          attempts made); only produced when [retries > 0] *)

(** [failure_to_string failure] is a one-line human rendering, e.g.
    ["crashed: killed by SIGKILL"] or ["timed out after 5s"]. *)
val failure_to_string : failure -> string

(** One input item's terminal state. *)
type 'b outcome =
  | Settled of 'b  (** the job completed and returned a value *)
  | Failed of failure  (** all attempts failed; the job is quarantined *)
  | Not_run  (** the run was stopped before the job could settle *)

(** {1 Supervision policy} *)

type policy = {
  timeout : float option;
      (** per-attempt wall-clock deadline in seconds; [None] = wait
          forever (the pre-supervision behaviour) *)
  retries : int;  (** extra attempts after the first failure *)
  backoff : float;
      (** delay before retry [n] is [backoff * 2^(n-1)] seconds —
          deterministic, so a chaos-injected schedule reproduces
          exactly *)
}

(** No deadline, no retries, 0.5 s base backoff. *)
val default_policy : policy

(** {1 Deterministic chaos injection}

    For supervision tests and the [@chaos-smoke] alias: a chaos plan
    makes selected workers misbehave on schedule, in the worker process,
    as it receives the attempt — so the supervisor exercises its real
    recovery paths against real process death, not mocks. *)

type chaos_action =
  | Crash  (** the worker SIGKILLs itself before running the job *)
  | Hang  (** the worker sleeps forever (reaped only by a deadline) *)
  | Truncate
      (** the worker runs the job, writes the marshalled payload short
          by one byte, tearing it, and exits *)

(** [plan ~index ~attempt] decides what (if anything) happens to the
    worker running input [index] on its [attempt]-th try (1-based). *)
type chaos_plan = index:int -> attempt:int -> chaos_action option

(** Process-wide chaos hook consulted by {!run}; [None] (the default)
    falls back to parsing {!chaos_env}. Tests set it directly. The
    serial path ignores chaos; forked workers consult it as each
    attempt arrives and reproduce the action literally. *)
val chaos : chaos_plan option ref

(** Name of the environment variable ["RR_SIM_POOL_CHAOS"] holding a
    chaos spec for CLI runs. *)
val chaos_env : string

(** [chaos_of_string spec] parses the chaos DSL: [;]-separated clauses
    [ACTION:JOB[,JOB...]] with actions [crash], [hang], [trunc] and job
    targets [N] (first attempt only), [N*] (every attempt), [N@A]
    (attempt [A] only). Example: ["crash:1;hang:3*;trunc:0@2"]. *)
val chaos_of_string : string -> (chaos_plan, string) result

(** {1 Running} *)

(** [run ~jobs ?backend ?policy ?stop ?on_done ?on_retry ?on_settled
    ?on_worker f items] applies [f] to every item, running up to [jobs]
    workers concurrently under [policy], and returns one {!outcome} per
    item in input order. [backend] defaults to {!Forked} at every
    [jobs >= 1], so deadlines, chaos and a stop request hold even for
    one worker; {!Serial} runs only when a test asks for it.

    [stop] is polled before each of the supervisor's waits. A wait ends
    on a result, a deadline, a retry coming due, a signal ([EINTR]) or
    the half-second cap, so a stop set without a signal is seen within
    about half a second. Once it returns [true], busy workers are
    SIGKILLed and every worker reaped, and every job not yet settled is
    reported {!Not_run} — already-settled work is kept.
    [on_done] is called in the supervisor as each item settles (with
    the count settled so far), for progress display. [on_retry] fires
    on each non-final failed attempt, before the backoff; [on_settled]
    fires on each terminal outcome — success or final failure — as it
    happens, so callers can persist results incrementally (eager cache
    stores, run journals). [on_worker] fires as each worker starts,
    with the number of workers then alive, so its largest argument is
    the most workers the call had at once; it never fires if no worker
    started (no items, or every fork refused). The serial reference
    fires it once, with 1, before its first attempt. All callbacks run
    in the supervisor.

    @raise Invalid_argument if {!chaos_env} holds an unparseable spec. *)
val run :
  jobs:int ->
  ?backend:backend ->
  ?policy:policy ->
  ?stop:(unit -> bool) ->
  ?on_done:(int -> unit) ->
  ?on_retry:(index:int -> attempt:int -> failure -> unit) ->
  ?on_settled:(index:int -> ('b, failure) result -> unit) ->
  ?on_worker:(int -> unit) ->
  ('a -> 'b) ->
  'a list ->
  'b outcome list

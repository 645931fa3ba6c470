(** Discrete-event simulation engine.

    An engine owns virtual time and a queue of pending events. Components
    schedule closures to run at future instants; [run] drains the queue in
    time order (stable for simultaneous events) and advances the clock.
    The queue is an ns-2-style calendar queue: O(1) amortized schedule
    and fire. Engines are ordinary values with no global state, so tests
    can run many independent simulations in one process. *)

type t

(** Cancellation handle for a scheduled event. *)
type handle

(** [create ()] returns an engine with the clock at time 0. *)
val create : unit -> t

(** [now t] is the current virtual time in seconds. *)
val now : t -> float

(** [schedule_at t ~time f] runs [f ()] when the clock reaches [time].
    [time] must not be in the past.

    @raise Invalid_argument if [time < now t]. *)
val schedule_at : t -> time:float -> (unit -> unit) -> handle

(** [schedule_after t ~delay f] runs [f ()] after [delay] seconds.
    [delay] must be non-negative. *)
val schedule_after : t -> delay:float -> (unit -> unit) -> handle

(** [schedule_unit_at t ~time f] is {!schedule_at} for fire-and-forget
    events: no cancellation handle is returned, which lets the engine
    recycle the event record through an internal free list. This is the
    allocation-free fast path for the per-packet events of the hot
    simulation loop.

    @raise Invalid_argument if [time < now t]. *)
val schedule_unit_at : t -> time:float -> (unit -> unit) -> unit

(** [schedule_unit t ~delay f] is {!schedule_after} without a handle;
    see {!schedule_unit_at}. *)
val schedule_unit : t -> delay:float -> (unit -> unit) -> unit

(** [cancel t handle] prevents the event from firing. Cancelling an
    event that already fired or was already cancelled is a no-op (and
    in particular does not disturb {!pending}). *)
val cancel : t -> handle -> unit

(** [pending t] is the number of events still scheduled to fire
    (cancelled and already-fired events are not counted). *)
val pending : t -> int

(** [run t] processes events until the queue is empty. *)
val run : t -> unit

(** [run_until t ~time] processes events with timestamps [<= time], then
    sets the clock to [time]. If {!stop} was called mid-run, the clock
    stays at the last fired event instead.
    @raise Invalid_argument if [time] is negative or NaN. *)
val run_until : t -> time:float -> unit

(** [stop t] makes the current [run]/[run_until] return after the event
    being processed completes. *)
val stop : t -> unit

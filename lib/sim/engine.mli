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

(** {1 Times as ints}

    The engine stores every time as an int: [bits_of_time] maps each
    non-negative double (including [+infinity]) onto a native 63-bit
    int such that [t1 <= t2] iff [bits_of_time t1 <= bits_of_time t2],
    and [time_of_bits] inverts it exactly. Negative inputs and NaN are
    not meaningful under this encoding; callers validate first.

    The dev profile compiles every module [-opaque], so a float passed
    to or returned from another module's function is boxed. Per-packet
    code therefore reads the clock with {!now_bits} and schedules with
    {!schedule_unit_at_bits}: ints cross the module boundary for free. *)

(** [bits_of_time t] encodes a non-negative timestamp. *)
val bits_of_time : float -> int

(** [time_of_bits bits] decodes; exact inverse of {!bits_of_time} on
    non-negative inputs. *)
val time_of_bits : int -> float

(** [now_bits t] is [bits_of_time (now t)]. *)
val now_bits : t -> int

(** [bits_after t ~delay] is [bits_of_time (now t +. delay)].

    @raise Invalid_argument if [delay] is negative or NaN. *)
val bits_after : t -> delay:float -> int

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

(** [schedule_unit_at_bits t ~bits f] is {!schedule_unit_at} at
    [time_of_bits bits], without a float crossing the call.

    @raise Invalid_argument if [bits] encodes NaN or a time before
    [now t]. *)
val schedule_unit_at_bits : t -> bits:int -> (unit -> unit) -> unit

(** [cancel t handle] prevents the event from firing. Cancelling an
    event that already fired or was already cancelled is a no-op (and
    in particular does not disturb {!pending}). *)
val cancel : t -> handle -> unit

(** [pending t] is the number of events still scheduled to fire
    (cancelled and already-fired events are not counted). *)
val pending : t -> int

(** [scheduled t] is the number of events scheduled on [t] since
    {!create}, by every entry point, whether they fired, were cancelled
    or are still pending. It reads the insertion counter that orders
    same-time events, so counting costs nothing. *)
val scheduled : t -> int

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

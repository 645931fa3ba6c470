(** Host monotonic clock ([CLOCK_MONOTONIC]), shared by every process
    on the machine, so a forked worker's stamps compare with its
    supervisor's. *)

(** [now_ns ()] is the clock in nanoseconds. Allocation-free. *)
val now_ns : unit -> int

(** [seconds_since t0] is the host seconds elapsed since [t0]
    (a {!now_ns} reading). *)
val seconds_since : int -> float

(** Restartable one-shot timer, the shape TCP retransmission timers need.

    A timer is created idle with a fixed callback; [start] arms it,
    [restart] re-arms it (cancelling any pending expiry), and [cancel]
    disarms it. The callback runs at most once per arming. *)

type t

(** [create engine ~callback] returns an idle timer on [engine]. *)
val create : Engine.t -> callback:(unit -> unit) -> t

(** [start t ~after] arms the timer to fire in [after] seconds.

    @raise Invalid_argument if the timer is already armed, or if
    [after] is negative or NaN. *)
val start : t -> after:float -> unit

(** [restart t ~after] cancels any pending expiry and arms the timer to
    fire in [after] seconds.

    @raise Invalid_argument if [after] is negative or NaN. *)
val restart : t -> after:float -> unit

(** [cancel t] disarms the timer if armed; otherwise does nothing. *)
val cancel : t -> unit

(** [is_armed t] reports whether an expiry is pending. *)
val is_armed : t -> bool

(** [expiry t] is the absolute expiry time if armed. *)
val expiry : t -> float option

(** Append-only time series of [(time, value)] samples.

    Backs the sequence-number-vs-time plots (paper Figure 6) and the
    cumulative-ACK trajectories the throughput metrics are computed
    from. Samples must be appended in non-decreasing time order, which
    is what a simulation naturally produces. *)

type t

(** [create ()] is an empty series. *)
val create : unit -> t

(** [add t ~time ~value] appends a sample.

    @raise Invalid_argument if [time] precedes the last sample. *)
val add : t -> time:float -> value:float -> unit

(** [add_int t ~time ~value] is [add t ~time ~value:(float_of_int value)].
    The conversion happens inside this module, so no float is boxed to
    make the call: the per-packet recorders ({!Flow_trace}) use it. *)
val add_int : t -> time:float -> value:int -> unit

(** [length t] is the sample count. *)
val length : t -> int

(** [is_empty t] is [length t = 0]. *)
val is_empty : t -> bool

(** [to_list t] returns samples oldest first. *)
val to_list : t -> (float * float) list

(** [value_at t ~time] is the value of the latest sample at or before
    [time], or [None] if the series starts later. *)
val value_at : t -> time:float -> float option

(** [last t] is the most recent sample. *)
val last : t -> (float * float) option

(** [first_time_at_or_above t ~value] is the earliest sample time whose
    value reaches [value], if any — e.g. "when did the cumulative ACK
    pass the loss window". *)
val first_time_at_or_above : t -> value:float -> float option

(** [between t ~t0 ~t1] lists samples with [t0 <= time <= t1]. *)
val between : t -> t0:float -> t1:float -> (float * float) list

(** [to_csv t] renders "time,value" lines. *)
val to_csv : t -> string

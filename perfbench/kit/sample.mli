(** How the benchmark turns repeated timed passes into one figure. *)

(** [median xs] of a non-empty list (mean of the middle pair when even).
    @raise Invalid_argument on an empty list. *)
val median : float list -> float

(** [per_second ~count ~seconds] is the rate of a pass that does
    [count] units of work, from the host seconds of each repetition of
    that same pass: all the work over all the time. The host runs in
    fast and slow phases of seconds to minutes; this rate follows the
    share of each phase in the run, where a median pass time jumps to
    whichever phase holds the most passes.
    @raise Invalid_argument on an empty list. *)
val per_second : count:int -> seconds:float list -> float

(** [diff_ns_per ~count ~with_ ~without] is a layer's cost from two
    runs of the same inputs, one with the layer and one without: the
    difference of their median pass seconds, in nanoseconds per unit
    of [count]. Noise can make it negative; it is reported as
    measured. *)
val diff_ns_per : count:int -> with_:float list -> without:float list -> float

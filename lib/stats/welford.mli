(** Streaming mean/variance (Welford's online algorithm).

    The many-flow runs summarise tens of thousands of per-flow
    measurements; collecting them into lists for {!Summary.of_list}
    would cost O(samples) memory per metric. A [Welford.t] holds the
    running count, mean and squared-deviation sum in O(1) space, is
    numerically stable for long streams, and matches [Summary.of_list]
    on the same sample (up to float rounding of the two algorithms). *)

type t

(** [create ()] is an empty accumulator. *)
val create : unit -> t

(** [add t x] folds in one observation. NaN observations are counted
    and poison the moments, as they would a list summary. *)
val add : t -> float -> unit

(** [mean t] is the running mean; [nan] when empty. *)
val mean : t -> float

(** [stddev t] is the sample (n-1) standard deviation; [0.] with fewer
    than two observations. *)
val stddev : t -> float

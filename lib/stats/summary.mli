(** Cross-run summary statistics for campaign aggregation.

    A sweep runs the same scenario point under several seeds; each
    group of per-seed measurements is collapsed into a mean, a sample
    standard deviation and a 95% confidence half-width (Student's t
    for small samples), which is what the campaign reporters print. *)

type t = {
  n : int;  (** sample count *)
  mean : float;  (** [nan] when [n = 0] *)
  stddev : float;  (** sample (n-1) standard deviation; 0 when [n < 2] *)
  ci95 : float;
      (** 95% confidence half-width of the mean, [t·s/√n]; 0 when
          [n < 2] *)
}

(** [of_list values] summarises the sample. *)
val of_list : float list -> t

(** [to_string ?scale t] renders ["mean +- ci95"] with both values
    multiplied by [scale] (default 1), e.g. [scale:0.001] for
    Kbps-from-bps columns. *)
val to_string : ?scale:float -> t -> string

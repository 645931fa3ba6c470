(** Fixed-size reservoir sampling for streaming quantiles.

    Exact quantiles over a 50k-flow run would mean retaining every
    observation; a reservoir (Vitter's algorithm R) keeps a uniform
    random sample of bounded size instead, giving quantile estimates
    whose error shrinks with the reservoir, in O(capacity) memory.
    Randomness comes from an explicit {!Sim.Rng.t} stream, so a run's
    quantiles are as reproducible as the run itself. *)

type t

(** [create ~capacity ~rng ()] is an empty reservoir retaining at most
    [capacity] observations.

    @raise Invalid_argument when [capacity < 1]. *)
val create : capacity:int -> rng:Sim.Rng.t -> unit -> t

(** [add t x] offers one observation; once [capacity] observations have
    been seen, each subsequent one replaces a random slot with
    probability [capacity/seen]. *)
val add : t -> float -> unit

(** [quantiles t qs] estimates each [q]-quantile ([0 <= q <= 1]) from
    the retained sample by nearest-rank on the sorted reservoir, sorting
    once; [nan] when empty.

    @raise Invalid_argument when a [q] is outside [0, 1]. *)
val quantiles : t -> float list -> float list

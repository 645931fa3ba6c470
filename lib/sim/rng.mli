(** Deterministic pseudo-random number generation for simulations.

    Every stochastic component of the simulator draws from an explicit
    [Rng.t] stream so that a run is reproducible from its seed alone and
    independent streams can be split off for independent components
    (e.g. one stream per RED queue). The generator is SplitMix64, which
    has a 64-bit state, passes BigCrush, and supports cheap splitting. *)

type t

(** [create seed] returns a fresh generator stream. Equal seeds produce
    equal streams. *)
val create : int64 -> t

(** [split t] derives a new, statistically independent stream from [t],
    advancing [t]. Use it to give sub-components their own streams. *)
val split : t -> t

(** [bits64 t] returns the next raw 64 random bits. *)
val bits64 : t -> int64

(** [float t] draws uniformly from [\[0, 1)]. *)
val float : t -> float

(** [float_range t ~lo ~hi] draws uniformly from [\[lo, hi)].
    Requires [lo < hi]. *)
val float_range : t -> lo:float -> hi:float -> float

(** [int t n] draws uniformly from [\[0, n)]. Requires [n > 0]. *)
val int : t -> int -> int

(** [bernoulli t p] returns [true] with probability [p] (clamped to
    [\[0, 1\]]). *)
val bernoulli : t -> float -> bool

(** [exponential t ~mean] draws from the exponential distribution with
    the given mean. Requires [mean > 0]. *)
val exponential : t -> mean:float -> float

(** [pareto t ~shape ~scale] draws from the Pareto (type I) distribution
    with tail index [shape] and minimum value [scale] — the heavy-tailed
    law of web-transfer sizes and on/off burst lengths. The mean is
    [scale * shape / (shape - 1)] for [shape > 1] (infinite otherwise).
    Requires [shape > 0] and [scale > 0]. *)
val pareto : t -> shape:float -> scale:float -> float

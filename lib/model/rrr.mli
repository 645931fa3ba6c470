(** Steady-state model of Relative Rate Reduction (Hága, Tóth, Csabai
    & Vattay, "TCP congestion control with adjustable congestion
    level", arxiv 1707.07218).

    RRR generalises the Reno half-cut: each congestion event reduces
    the window to [b * W] with backoff factor [b = 1 - level], where
    [level] is the configured congestion level ([level = 0.5]
    reproduces Reno). The classic AIMD sawtooth analysis — one loss per
    cycle, +1 segment per RTT between losses — gives a cycle of
    [(1 - b) * Wmax] RTTs carrying [(1 - b^2) / 2 * Wmax^2] segments,
    so [p = 2 / ((1 - b^2) * Wmax^2)] and the mean window is

    {[ W = sqrt ((1 + b) / (2 * p * (1 - b)))
         = sqrt ((2 - level) / (2 * level * p)) ]}

    At [level = 0.5] this is [sqrt (3 / 2) / sqrt p] — exactly
    {!Mathis.c_ack_every_packet}[ / sqrt p], the consistency anchor
    the model tests pin. Smaller levels trade a slower [1 / sqrt
    level] growth of the window for gentler rate cuts. *)

(** [window ~level ~loss_rate] is the mean steady-state window in
    segments.

    @raise Invalid_argument if [level] is outside [(0, 1)] or
    [loss_rate] outside [(0, 1]]. *)
val window : level:float -> loss_rate:float -> float

(** [window_limited ~level ~loss_rate ~rwnd] caps the model at the
    receiver's advertised window.

    @raise Invalid_argument if [rwnd < 1]. *)
val window_limited : level:float -> loss_rate:float -> rwnd:int -> float

(** [bandwidth_bps ~level ~mss ~rtt ~loss_rate] is the predicted
    throughput in bits per second.

    @raise Invalid_argument on non-positive [mss] or [rtt]. *)
val bandwidth_bps :
  level:float -> mss:int -> rtt:float -> loss_rate:float -> float

(** The New-Reno recovery machine (Hoe 1996 / RFC 2582,
    "slow-but-steady") and the three variants that differ from it only
    in a rule.

    Fast retransmit cuts the window, inflates it by one segment per
    duplicate ACK for self-clocking, and resends the first hole. Fast
    recovery is kept open across partial ACKs: each retransmits the
    next hole, deflates the window by the amount newly acknowledged plus
    re-inflates by one, and restarts the retransmission timer. Recovery
    ends when the ACK reaches the [recover] point recorded at entry.
    One lost segment is repaired per RTT, and roughly one new segment is
    sent per two duplicate ACKs — the exponentially-decaying
    transmission the paper's §1 identifies as the cause of self-clocking
    loss under bursty drops. A timeout is go-back-N slow start. *)

type rule =
  | Reno
      (** Jacobson 1990. The recovery point is the first hole, so {e
          any} new ACK — including a partial one — deflates the window
          and ends recovery: each further loss in the window costs
          another halving or a timeout. *)
  | Newreno  (** The half-cut on entry and on timeout. *)
  | Rrr
      (** Relative Rate Reduction (arxiv 1707.07218; steady-state model
          in [Model.Rrr]). Every congestion event, fast-recovery entry or
          timeout, cuts the window to [(1 - level) * W], where [level] is
          {!Params.t.rrr_level}. New-Reno is this rule at [level = 0.5];
          smaller levels cut less per event and so hold a larger mean
          window ([sqrt ((2 - level) / (2 * level * p))] segments under
          random loss [p]), at the price of draining queues more
          slowly. *)
  | Relentless
      (** Relentless Congestion Control (Mathis,
          [draft-mathis-iccrg-relentless-tcp]; model in
          [Model.Relentless], arxiv 1102.3270). The window comes down by
          exactly the segments lost: one at entry, one more per partial
          ACK, off an un-inflated target that recovery exits to. Steady
          state sits at [W = 1/p] instead of sawtoothing around
          [C / sqrt p]: a deliberately non-TCP-friendly design. Timeouts
          keep the standard half-cut. *)

(** [create rule ~engine ~params ~flow ~emit ()] builds a sender that
    runs the machine under [rule]. Its agent is named after the rule
    (["reno"], ["newreno"], ["rrr"], ["relentless"]). *)
val create :
  rule ->
  engine:Sim.Engine.t ->
  params:Params.t ->
  flow:int ->
  emit:(Net.Packet.t -> unit) ->
  unit ->
  Agent.t

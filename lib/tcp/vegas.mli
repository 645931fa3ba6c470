(** TCP Vegas sender (Brakmo, O'Malley & Peterson 1994 — the paper's
    reference [3]).

    The paper's §1 highlights the finding of Hengartner et al. ([8])
    that Vegas' gain over Reno comes mainly from its loss-recovery and
    slow-start changes, not its celebrated RTT-based congestion
    avoidance; this implementation exposes the three mechanisms
    separately so that claim can be tested (see
    [Experiments.Vegas_claim]):

    - {b fine-grained retransmission}: every segment's transmission time
      is recorded; a duplicate ACK triggers retransmission as soon as
      the oldest outstanding segment's age exceeds the fine-grained
      timeout — no need to wait for three duplicates — and the window is
      reduced by a quarter only once per RTT of losses;
    - {b RTT-based congestion avoidance}: once per RTT, the expected
      ([cwnd/baseRTT]) and actual ([cwnd/RTT]) rates are compared; the
      window grows by one if the backlog estimate is below α = 1
      segment, shrinks by one if above β = 3, and holds otherwise;
    - {b cautious slow start}: the window doubles only every other RTT,
      and slow start ends as soon as the backlog exceeds γ = 1.

    Each mechanism can be disabled to fall back to the Reno behaviour. *)

type mechanisms = {
  fine_retransmit : bool;
  rtt_based_avoidance : bool;
  cautious_slow_start : bool;
}

(** All three on — full Vegas. *)
val full : mechanisms

(** [create ~engine ~params ~flow ~emit ()] builds a full Vegas
    sender. *)
val create :
  engine:Sim.Engine.t ->
  params:Params.t ->
  flow:int ->
  emit:(Net.Packet.t -> unit) ->
  unit ->
  Agent.t

(** [create_with ~mechanisms] selects mechanisms individually (for the
    [8]-style decomposition). *)
val create_with :
  engine:Sim.Engine.t ->
  params:Params.t ->
  flow:int ->
  emit:(Net.Packet.t -> unit) ->
  mechanisms:mechanisms ->
  unit ->
  Agent.t

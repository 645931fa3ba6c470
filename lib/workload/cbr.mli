(** Constant-bit-rate (UDP-like) cross-traffic.

    A CBR source emits fixed-size packets at a fixed rate into any
    packet consumer — typically a dumbbell access link — with no
    congestion response at all: it models the unresponsive UDP
    cross-traffic that steals bottleneck bandwidth from the TCP flows
    under study. Packets are tagged with the source's flow id, so queue
    traces and drop ledgers attribute them correctly.

    Emission times are purely deterministic (no RNG): the first packet
    leaves at [at] and subsequent ones every
    [packet_bytes * 8 / rate_bps] seconds until [until]. *)

type t

(** [advances ~rate_bps ~packet_bytes ~until] holds when [rate_bps] is
    finite and positive, [packet_bytes] is positive, and the packet
    interval advances the clock at [until] (and so at every earlier
    time). A source that fails it would emit forever at one instant. *)
val advances : rate_bps:float -> packet_bytes:int -> until:float -> bool

(** [create ~engine ~flow ~rate_bps ~packet_bytes ~at ~until ~emit ()]
    arms the source. [emit] receives each freshly built packet; packet
    uids count up from 0 within this source. An empty window
    ([at >= until], e.g. a zero-length run) sends nothing.

    @raise Invalid_argument unless [rate_bps > 0], [packet_bytes > 0]
    and {!advances} holds. *)
val create :
  engine:Sim.Engine.t ->
  flow:int ->
  rate_bps:float ->
  packet_bytes:int ->
  at:float ->
  until:float ->
  emit:(Net.Packet.t -> unit) ->
  unit ->
  t

(** [interval t] is the emission period, seconds per packet. *)
val interval : t -> float

(** [sent t] counts packets emitted so far. *)
val sent : t -> int

(** [bytes_sent t] totals the bytes emitted so far. *)
val bytes_sent : t -> int

(** The paper's experimental topology (Figure 4): [n] senders S_i and
    receivers K_i joined by two gateways R1, R2. Every flow crosses its
    own side links and the shared bottleneck between the gateways; ACKs
    return over a symmetric reverse path. Congestion is engineered at
    R1's outbound (forward bottleneck) queue, which is the gateway
    discipline under test; all other queues are generously provisioned
    drop-tails. The dumbbell is a {!Topology} graph; [t] pairs that
    graph with the naming order of its queues. *)

type gateway = Dumbbell_config.gateway =
  | Droptail of { capacity : int }
  | Red of { capacity : int; params : Red.params }

(** Which way a flow's data travels. [Forward] is the paper's S→K
    direction; [Backward] flows send data K→S over the reverse trunk,
    their ACKs returning on the forward trunk — the two-way traffic of
    the paper's reference [22], whose data packets queue behind (and
    compress) the forward flows' ACKs. *)
type direction = Dumbbell_config.direction = Forward | Backward

type config = Dumbbell_config.t = {
  flows : int;
  side_bandwidth_bps : float;
  side_delay : float;
  bottleneck_bandwidth_bps : float;
  bottleneck_delay : float;  (** one-way *)
  gateway : gateway;
  access_capacity : int;  (** per-flow access-link buffers *)
  reverse_capacity : int;  (** reverse-trunk buffer (ACKs, and data of
                               [Backward] flows) *)
}

(** Table 3 parameters: 10 Mbps / 1 ms side links, 0.8 Mbps bottleneck,
    96 ms one-way bottleneck delay (giving the ~200 ms RTT of §4),
    8-packet drop-tail gateway. *)
val paper_config : flows:int -> config

type t

(** [create ~engine ~config ~rng ?taps ?on_drop ()] builds the
    topology. [taps] interposes {!Topology.wrap} functions on the named
    links — the bottleneck entry at R1 is link ["gateway"] (the paper's
    loss-injection point; compose wraps from {!Loss}) and the ACK-path
    entry at R2 is ["reverse_gateway"] (the §2.3 ACK-loss experiments);
    any other link name from {!Topology.dumbbell} works too. [rng]
    seeds the RED gateway when one is configured. [on_drop] observes
    every queue drop in the topology (in addition to the per-flow
    ledger). [side_delays] overrides [config.side_delay] per flow
    (applied to all four of that flow's access links), giving flows
    heterogeneous RTTs; its length must be [config.flows]. [directions]
    assigns each flow a {!direction} (default all [Forward]); a
    [Backward] flow's [inject_data] rides the reverse trunk and its
    [inject_ack] the forward trunk, so two-way experiments share queues
    exactly as in the paper's [22]. The dumbbell is realized as a
    {!Topology} graph; wraps are constructed in [taps] order, so RNG
    draws inside them follow the list.

    @raise Invalid_argument on array-length mismatches or
    [flows < 1]. *)
val create :
  engine:Sim.Engine.t ->
  config:config ->
  rng:Sim.Rng.t ->
  ?taps:(string * Topology.wrap) list ->
  ?on_drop:(Packet.t -> unit) ->
  ?side_delays:float array ->
  ?directions:direction array ->
  unit ->
  t

(** [topology t] is the underlying graph: callers inject packets,
    register delivery handlers, read the drop ledger and look up the
    gateway's queue and RED statistics (link ["gateway"]) through
    {!Topology} on it. *)
val topology : t -> Topology.t

(** [queues t] names every queue discipline in the topology — the
    gateway under test first ("gateway"), then the reverse gateway and
    the per-flow access/exit buffers — so auditors and tracers can
    {!Queue_disc.subscribe} to all of them. *)
val queues : t -> (string * Queue_disc.t) list

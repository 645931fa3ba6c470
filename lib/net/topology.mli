(** General directed-graph topology.

    Where {!Dumbbell} hard-codes the paper's Figure 4, this module
    describes an arbitrary network as data: named nodes, named
    unidirectional links (each with a bandwidth, a propagation delay and
    a queue discipline), per-node static routing tables, and named
    attachment points — flows attach to a (source, destination) node
    pair, and loss/fault wrappers attach to any link by name
    ({!create}'s [taps]). {!Dumbbell} is re-expressed as a thin wrapper
    over this module; the {!parking_lot} and {!fat_tree} builders cover
    the multi-bottleneck paths the related work needs.

    Scale: a topology holds per-flow state in flat arrays (endpoints,
    drop ledger, delivery handlers), so a run with tens of thousands of
    flows costs O(flows) memory with no per-flow closure web beyond the
    handlers the caller installs. For many-flow runs, install a single
    shared dispatch function with {!set_data_dispatch} /
    {!set_ack_dispatch} instead of one handler per flow. *)

(** Queue discipline attached to a link's entry. *)
type queue_spec = Dumbbell_config.gateway =
  | Droptail of { capacity : int }
  | Red of { capacity : int; params : Red.params }

type link_spec = {
  from_node : string;
  to_node : string;
  bandwidth_bps : float;
  delay : float;  (** one-way propagation, seconds *)
  queue : queue_spec;
}

(** One static routing entry at a node: packets whose destination node
    is [target] leave on link [via]. *)
type route = { target : string; via : string }

(** A node's forwarding state: explicit [routes] first, then the
    [default_route] link for everything else ([None] = packets for
    unlisted destinations are a routing error). Keeping defaults +
    exceptions makes gateway tables O(attached hosts), not O(nodes²). *)
type node_spec = {
  node : string;
  routes : route list;
  default_route : string option;
}

type spec = {
  nodes : node_spec list;
  links : (string * link_spec) list;
      (** named links, in realization order (the order queues are
          created — RED queues draw their RNG stream in this order) *)
}

(** A flow's attachment: data packets travel [src] → [dst]; its ACKs
    travel [dst] → [src]. *)
type endpoint = { src : string; dst : string }

(** A tap interposes on every packet entering a link (injected there or
    forwarded into it): it either calls the continuation or swallows
    the packet. *)
type wrap = (Packet.t -> unit) -> Packet.t -> unit

(** [validate spec ~flows] checks well-formedness and raises
    [Invalid_argument] with a [Topology: ...] message instead of letting
    a malformed graph fail mid-run: node/link names must be unique and
    declared, rates positive, delays non-negative, capacities >= 1,
    every node attached to some link, route entries resolvable, and
    every flow's data and ACK path must reach its destination without
    looping. {!create} calls this. *)
val validate : spec -> flows:endpoint array -> unit

type t

(** [create ~engine ~spec ~rng ?taps ?on_drop ~flows ()] realizes the
    graph. [rng] seeds RED gateways (split once per RED link, in link
    order). [taps] wraps the named links' entries, applied in list
    order after all queues exist — so the RNG-draw order is: RED
    queues (link order), then tap construction side effects (list
    order). [on_drop] observes every queue drop in addition to the
    per-flow ledger.

    @raise Invalid_argument on a malformed spec (see {!validate}), an
    unknown tap link, or a tap listed twice. *)
val create :
  engine:Sim.Engine.t ->
  spec:spec ->
  rng:Sim.Rng.t ->
  ?taps:(string * wrap) list ->
  ?on_drop:(Packet.t -> unit) ->
  flows:endpoint array ->
  unit ->
  t

(** {1 Traffic} *)

(** [inject_data t ~flow packet] puts a data packet on the flow's first
    hop toward its destination node; [inject_ack] likewise toward its
    source node. Routing is by packet kind: data packets are forwarded
    toward [flows.(flow).dst], ACKs toward [flows.(flow).src].

    @raise Invalid_argument on a flow id outside the endpoint table. *)
val inject_data : t -> flow:int -> Packet.t -> unit

val inject_ack : t -> flow:int -> Packet.t -> unit

(** [on_data t ~flow handler] registers the delivery callback invoked
    when a data packet of [flow] reaches its destination node. *)
val on_data : t -> flow:int -> (Packet.t -> unit) -> unit

(** [on_ack t ~flow handler] registers the callback for ACKs of [flow]
    arriving back at its source node. *)
val on_ack : t -> flow:int -> (Packet.t -> unit) -> unit

(** [set_data_dispatch t f] replaces the per-flow handler table with a
    single shared function — the many-flow path: one closure for the
    whole topology instead of one per flow. Calling {!on_data} after
    this reinstates the table. *)
val set_data_dispatch : t -> (Packet.t -> unit) -> unit

val set_ack_dispatch : t -> (Packet.t -> unit) -> unit

(** {1 Introspection} *)

(** [flows t] is the number of attached flows. *)
val flows : t -> int

(** [endpoint t ~flow] is the flow's attachment pair. *)
val endpoint : t -> flow:int -> endpoint

(** [queues t] names every queue discipline, in link order, for
    auditors and tracers to subscribe to. *)
val queues : t -> (string * Queue_disc.t) list

(** [queue t name] is the named link's discipline.

    @raise Invalid_argument on an unknown link name. *)
val queue : t -> string -> Queue_disc.t

(** [link t name] is the named {!Link}, the attachment point for
    link-level fault injection ({!Link.set_up}).

    @raise Invalid_argument on an unknown link name. *)
val link : t -> string -> Link.t

(** [link_names t] lists link names in realization order. *)
val link_names : t -> string list

(** [red_stats t name] classifies the named link's RED drops, when that
    link's queue is RED. *)
val red_stats : t -> string -> Red.drop_stats option

(** {1 Drop ledger} *)

(** [count_drop t packet] records a drop against the packet's flow.
    Queue drops are recorded automatically; pass this as [on_drop] to
    {!Loss} wrappers so injected losses land in the same ledger. *)
val count_drop : t -> Packet.t -> unit

val drops_of_flow : t -> int -> int

val total_drops : t -> int

(** {1 Builders} *)

(** [dumbbell ~config ?side_delays ?directions ()] is the paper's
    Figure 4 as a graph: senders [s<i>] and receivers [k<i>] joined by
    gateways [r1], [r2], with link names matching the {!Dumbbell.queues}
    names ([gateway], [reverse_gateway], [access_fwd<i>],
    [access_rev<i>], [exit_fwd<i>], [exit_rev<i>]). The returned
    endpoints honour [directions] (a [Backward] flow's data rides the
    reverse trunk). Array lengths must equal [config.flows]; violations
    raise [Invalid_argument] with [Dumbbell.create: ...] messages. *)
val dumbbell :
  config:Dumbbell_config.t ->
  ?side_delays:float array ->
  ?directions:Dumbbell_config.direction array ->
  unit ->
  spec * endpoint array

(** [parking_lot ~hops ~long_flows ~cross_per_hop ~config ()] chains
    [hops] bottleneck links [bottleneck0 .. bottleneck<hops-1>] between
    gateways [g0 .. g<hops>]. [long_flows] flows cross every bottleneck
    end to end; each hop [j] additionally carries [cross_per_hop] local
    flows entering at [g<j>] and leaving at [g<j+1>]. Endpoint order:
    long flows first, then hop-0 cross flows, hop-1, ... Bottleneck
    [j]'s entry queue is the named tap/fault point [bottleneck<j>]. *)
val parking_lot :
  hops:int ->
  long_flows:int ->
  cross_per_hop:int ->
  config:Dumbbell_config.t ->
  unit ->
  spec * endpoint array

(** [fat_tree ~pods ~hosts_per_pod ~config ()] is a shallow two-level
    tree: one [core] node, [pods] aggregation nodes [agg<p>], and
    [hosts_per_pod] hosts per pod. Up/down links [up<p>]/[down<p>]
    carry the bottleneck bandwidth; host access links are generous.
    One flow per host, destination striped to a host in the next pod,
    so every flow crosses two aggregation links and the core. *)
val fat_tree :
  pods:int ->
  hosts_per_pod:int ->
  config:Dumbbell_config.t ->
  unit ->
  spec * endpoint array

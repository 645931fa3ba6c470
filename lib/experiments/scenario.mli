(** Generic scenario runner.

    Every experiment in the paper's evaluation is an instance of: build
    a topology, attach one TCP sender/receiver pair per flow, drive
    them with FTP sources, optionally inject losses at the bottleneck,
    run for a while, and read traces back. This module is that instance
    machinery; the per-figure modules only choose parameters. The
    topology is a first-class field of the spec: the paper's Figure 4
    dumbbell is one constructor ({!dumbbell}), and any
    {!Net.Topology.spec} graph is the other ({!graph}). *)

(** What drives a flow's sender: the paper's persistent FTP, a single
    finite file, or a Pareto on/off "web mice" train
    ({!Workload.Mice}). For [Mice], a profile [until] of [infinity] is
    replaced by the scenario duration, and a profile [start] of [0] by
    the flow's [start]. *)
type source =
  | Infinite
  | File_bytes of int
  | Mice of Workload.Mice.profile

(** What an {!agent_maker} hands back: the agent plus, for
    Robust-Recovery senders, the introspection handle the run's auditor
    uses to check RR invariants. *)
type built = { agent : Tcp.Agent.t; rr_handle : Core.Rr.handle option }

(** [build ?rr agent] packages an agent for a custom {!agent_maker}. *)
val build : ?rr:Core.Rr.handle -> Tcp.Agent.t -> built

type agent_maker =
  engine:Sim.Engine.t ->
  params:Tcp.Params.t ->
  flow:int ->
  emit:(Net.Packet.t -> unit) ->
  unit ->
  built

type flow_spec = {
  label : string;
  make : agent_maker;
  start : float;
  source : source;
  direction : Net.Dumbbell.direction;
      (** [Backward] flows send data over the reverse trunk (two-way
          traffic, the paper's [22]) *)
}

(** [flow ?start ?source ?direction variant] is the spec for a
    standard-variant flow ([start] defaults to 0, [source] to
    [Infinite], [direction] to [Forward]). *)
val flow :
  ?start:float ->
  ?source:source ->
  ?direction:Net.Dumbbell.direction ->
  Core.Variant.t ->
  flow_spec

(** An unresponsive CBR (UDP-like) cross-traffic source occupying one
    topology slot after the TCP flows. *)
type cross = {
  rate_bps : float;
  packet_bytes : int;
  cross_direction : Net.Dumbbell.direction;
}

(** [cbr ~rate_bps ()] is a CBR source of 1000-byte packets (default),
    forward (default), running for the whole scenario. *)
val cbr :
  ?packet_bytes:int ->
  ?direction:Net.Dumbbell.direction ->
  rate_bps:float ->
  unit ->
  cross

(** [cross_of_string ~until s] parses [rr-sim run]'s [--cross-traffic]
    form [BPS[:BYTES][:reverse]] (1000-byte packets when omitted) into
    a source running until the scenario horizon [until]. A rate whose
    packet interval does not advance the clock at [until] is an
    [Error] ({!Workload.Cbr.advances}). *)
val cross_of_string : until:float -> string -> (cross, string) result

(** A general-graph scenario topology: the {!Net.Topology.spec} plus
    the link names the runner's knobs act on. *)
type graph = {
  graph : Net.Topology.spec;
  endpoints : Net.Topology.endpoint array;
      (** flow attachments, one per spec flow/cross slot, in order *)
  bottleneck : string option;
      (** the link [monitor_queue] samples and {!red_stats} reads *)
  loss_link : string option;
      (** where [uniform_loss], [forced_drops] and forward fault
          wrappers tap *)
  ack_loss_link : string option;  (** where [ack_loss] taps *)
  flap_links : string list;
      (** links cut together by the fault flap schedule *)
}

(** Which network a spec builds. [Dumbbell] is the paper's Figure 4
    (built through {!Net.Dumbbell}, which names its queues in the
    historical order); [Graph] realizes any {!Net.Topology.spec}
    directly. On a [Graph] topology, [flow_spec.direction] is ignored
    (the endpoints already orient each flow) and [side_delays] must be
    [None]. *)
type topology = Dumbbell of Net.Dumbbell.config | Graph of graph

(** [dumbbell config] is the paper's topology as a spec field. *)
val dumbbell : Net.Dumbbell.config -> topology

(** [graph ~spec ~endpoints ()] wraps a general graph. Omitted link
    names disable the corresponding runner knob; asking for the knob
    anyway ([uniform_loss] without [loss_link], [monitor_queue] without
    [bottleneck], flap faults without [flap_links], ...) makes {!run}
    raise [Invalid_argument] rather than silently not injecting. *)
val graph :
  ?bottleneck:string ->
  ?loss_link:string ->
  ?ack_loss_link:string ->
  ?flap_links:string list ->
  spec:Net.Topology.spec ->
  endpoints:Net.Topology.endpoint array ->
  unit ->
  topology

(** [parking_lot ~hops ~long_flows ~cross_per_hop ~config] is
    {!Net.Topology.parking_lot} as a {!graph}: its first hop
    ([bottleneck0]) is the bottleneck and the loss link, the last
    hop's reverse link ([rbottleneck<hops-1>]) the ACK-loss link, and
    the first hop in both directions the flap links. *)
val parking_lot :
  hops:int ->
  long_flows:int ->
  cross_per_hop:int ->
  config:Net.Dumbbell.config ->
  topology

(** [faults_fit topology faults] is [false] when [faults] asks for what
    [topology] cannot realise: an [asym] clause needs the dumbbell's
    reverse trunk. {!run} raises [Invalid_argument] on such a spec. *)
val faults_fit : topology -> Faults.Spec.t -> bool

(** [rate_overflow topology faults] describes the first fade or
    handover level that would step a link [faults] varies on
    [topology] to an infinite rate, e.g. ["faults: fade level 1e+308
    takes a 800000 bps link to an infinite rate"], or is [None].
    {!run} raises [Invalid_argument] on such a spec, from
    {!Faults.Timeline.of_steps}. *)
val rate_overflow : topology -> Faults.Spec.t -> string option

type spec = {
  topology : topology;
  flows : flow_spec list;  (** one per flow id, in order *)
  params : Tcp.Params.t;
  seed : int64;
  duration : float;
  forced_drops : Net.Loss.rule list;
      (** deterministic drops at R1 (Figure 5) *)
  uniform_loss : float;  (** random data-drop rate at R1, 0 = none (§4) *)
  ack_loss : float;
      (** random ACK-drop rate on the reverse path, 0 = none (§2.3) *)
  delayed_ack : bool;  (** receivers delay ACKs (extension; off = paper) *)
  monitor_queue : float option;
      (** sample the bottleneck queue length every this many seconds *)
  side_delays : float array option;
      (** per-flow access-link delay override (heterogeneous RTTs) *)
  trace_out : out_channel option;
      (** when set, a structured event trace ({!Audit.Trace}) of every
          sender, queue and injected fault is written there during the
          run *)
  trace_format : [ `Jsonl | `Binary ];
      (** trace encoding: JSONL lines (default) or the compact binary
          container that [rr-sim trace export] converts back *)
  faults : Faults.Spec.t;
      (** link flaps / reordering / jitter / time-varying conditions to
          inject ({!Faults.Spec.none} = clean network). Flaps cut both
          trunk directions under one schedule; reordering and jitter
          wrap the forward bottleneck entry, plus the reverse entry when
          the spec says [reverse]. Fade and handover timelines step the
          forward trunk's rate (on a graph: every [flap_links] link);
          [asym] re-rates the dumbbell's reverse trunk to [forward/R] at
          t = 0. *)
  link_schedule : Faults.Timeline.t option;
      (** an explicit value timeline applied verbatim to the same links
          the fade clause would target (the dumbbell trunk, or the graph
          spec's [flap_links]) — the [rr-sim run --link-schedule] path.
          [None] or an empty timeline schedules nothing, byte-identical
          to a clean run. *)
  cross : cross list;
      (** CBR cross-traffic sources; they occupy topology flow slots
          [List.length flows ..] in order, so
          [config.flows = List.length flows + List.length cross] *)
  watch_divergence : bool;
      (** attach an {!Audit.Divergence} monitor to every TCP sender,
          watching for RTO-estimator divergence and synchronized
          timeout bursts (off by default; observation-only) *)
  audit_sample : int;
      (** auditor sampling divisor: check batteries run on 1-in-this
          events (default 1 = full audit; see {!Audit.Auditor}); [0]
          detaches the auditor entirely — the clean-run reference when
          measuring audit overhead (the {!t.auditor} of such a run is
          trivially ok with zero checks) *)
}

(** [make ~topology ~flows ()] builds a spec with the defaults the
    paper's experiments share: default TCP parameters, seed 7, 30 s
    horizon, no injected losses, immediate ACKs. *)
val make :
  topology:topology ->
  flows:flow_spec list ->
  ?params:Tcp.Params.t ->
  ?seed:int64 ->
  ?duration:float ->
  ?forced_drops:Net.Loss.rule list ->
  ?uniform_loss:float ->
  ?ack_loss:float ->
  ?delayed_ack:bool ->
  ?monitor_queue:float ->
  ?side_delays:float array ->
  ?trace_out:out_channel ->
  ?trace_format:[ `Jsonl | `Binary ] ->
  ?faults:Faults.Spec.t ->
  ?link_schedule:Faults.Timeline.t ->
  ?cross:cross list ->
  ?watch_divergence:bool ->
  ?audit_sample:int ->
  unit ->
  spec

type flow_result = {
  spec : flow_spec;
  agent : Tcp.Agent.t;
  rr_handle : Core.Rr.handle option;
  receiver : Tcp.Receiver.t;
  trace : Stats.Flow_trace.t;
  mutable completion : Workload.Ftp.completion option;
  mutable mice : Workload.Mice.t option;
      (** the running mice source, for flows with a [Mice] source *)
}

(** One CBR source and where its packets went. [received] counts
    packets that crossed the topology (sent − received − still-queued =
    dropped). *)
type cross_result = {
  cross : cross;
  cross_flow : int;  (** the topology flow slot it occupies *)
  source : Workload.Cbr.t;
  mutable received : int;
}

(** What kind of packet a gateway dropped: a data segment (with its
    sequence number) or an ACK travelling the reverse path. *)
type drop_payload = Data of { seq : int } | Ack

type drop = { time : float; flow : int; payload : drop_payload }

(** The realized network of a run: the dumbbell handle, or the graph
    paired with its {!graph} description. *)
type net = Dumbbell_net of Net.Dumbbell.t | Graph_net of Net.Topology.t * graph

type t = {
  engine : Sim.Engine.t;
  net : net;
  results : flow_result array;
  cross_results : cross_result array;  (** one per [spec.cross] entry *)
  drop_log : drop list;
      (** every packet dropped anywhere in the topology, oldest first *)
  queue_occupancy : Stats.Series.t option;
      (** bottleneck queue length over time, when monitoring was on *)
  auditor : Audit.Auditor.t;
      (** the run's invariant auditor — always attached to every sender
          and queue; violations are reported on stderr after the run and
          left here for callers to inspect *)
  divergence : Audit.Divergence.t option;
      (** the run's estimator-divergence monitor, when the spec asked
          for [watch_divergence] — findings are observations for the
          caller to read, never printed by the runner *)
  injector : Faults.Injector.t option;
      (** the run's fault injector and its counters, when [spec.faults]
          or [spec.link_schedule] injected anything *)
}

(** [run spec] builds and executes the scenario to [spec.duration].

    Every run carries an {!Audit.Auditor} subscribed to each sender and
    each queue of the topology; if any invariant fails the report is
    printed to [stderr] (the run still completes — use [t.auditor] to
    fail programmatically). *)
val run : spec -> t

(** [drops t ~flow] is that flow's total drop count. *)
val drops : t -> flow:int -> int

(** [counters t ~flow] is that flow's sender counters. *)
val counters : t -> flow:int -> Tcp.Counters.t

(** [goodput_bps t ~flow ~t0 ~t1] is that flow's effective throughput
    over [\[t0, t1\]] ({!Stats.Metrics.effective_throughput_bps}), in
    segments of the flow's own MSS. *)
val goodput_bps : t -> flow:int -> t0:float -> t1:float -> float

(** [fault_drops t] is the packets the run's fault injector discarded
    (0 when nothing was injected). *)
val fault_drops : t -> int

(** [red_stats t] classifies RED drops at the bottleneck: the dumbbell
    gateway, or a graph's designated [bottleneck] link. [None] when the
    bottleneck queue is not RED (or a graph named none). *)
val red_stats : t -> Net.Red.drop_stats option

(** [rtt_estimate t] is the nominal no-queueing round-trip time of the
    topology for an [mss]-sized data packet and its ACK, including
    transmission times — the paper's "RTT" (~200 ms for the Table 3
    configuration). *)
val rtt_estimate : Net.Dumbbell.config -> mss:int -> ack_size:int -> float

(** [tracefile t] renders the run as an ns-2-style event trace, one
    line per transmission ([+], sender into its access link), ACK
    arrival back at the sender ([r]) and drop ([d]), time-ordered:

    {v + 1.2345 0 1 tcp 1000 ------- 2 0.0 1.0 41 v}

    (event, time, from-node, to-node, type, bytes, flags, flow id,
    src, dst, seqno). Useful for feeding ns-2 post-processing tools. *)
val tracefile : t -> string

type source =
  | Infinite
  | File_bytes of int
  | Mice of Workload.Mice.profile

type built = { agent : Tcp.Agent.t; rr_handle : Core.Rr.handle option }

let build ?rr agent = { agent; rr_handle = rr }

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
}

let flow ?(start = 0.0) ?(source = Infinite) ?(direction = Net.Dumbbell.Forward)
    variant =
  {
    label = Core.Variant.name variant;
    make =
      (fun ~engine ~params ~flow ~emit () ->
        let agent, rr_handle =
          Core.Variant.create_inspected variant ~engine ~params ~flow ~emit ()
        in
        { agent; rr_handle });
    start;
    source;
    direction;
  }

type cross = {
  rate_bps : float;
  packet_bytes : int;
  cross_direction : Net.Dumbbell.direction;
}

let cbr ?(packet_bytes = 1000) ?(direction = Net.Dumbbell.Forward) ~rate_bps
    () =
  { rate_bps; packet_bytes; cross_direction = direction }

let cross_of_string ~until s =
  let invalid () =
    Error
      (Printf.sprintf "invalid cross-traffic %S (expected BPS[:BYTES][:reverse])"
         s)
  in
  let build ?(packet_bytes = 1000) ?(reverse = false) rate =
    match float_of_string_opt rate with
    | Some rate_bps when rate_bps > 0.0 ->
      if Workload.Cbr.advances ~rate_bps ~packet_bytes ~until then
        let direction =
          if reverse then Net.Dumbbell.Backward else Net.Dumbbell.Forward
        in
        Ok (cbr ~packet_bytes ~direction ~rate_bps ())
      else
        Error
          (Printf.sprintf
             "rate %s bps is too high: the interval between %d-byte \
              packets does not advance the clock at %g s"
             rate packet_bytes until)
    | _ -> invalid ()
  in
  let sized bytes k =
    match int_of_string_opt bytes with
    | Some packet_bytes when packet_bytes > 0 -> k packet_bytes
    | _ -> invalid ()
  in
  match String.split_on_char ':' (String.trim s) with
  | [ rate ] -> build rate
  | [ rate; "reverse" ] -> build ~reverse:true rate
  | [ rate; bytes ] -> sized bytes (fun packet_bytes -> build ~packet_bytes rate)
  | [ rate; bytes; "reverse" ] ->
    sized bytes (fun packet_bytes -> build ~packet_bytes ~reverse:true rate)
  | _ -> invalid ()

type graph = {
  graph : Net.Topology.spec;
  endpoints : Net.Topology.endpoint array;
  bottleneck : string option;
  loss_link : string option;
  ack_loss_link : string option;
  flap_links : string list;
}

type topology = Dumbbell of Net.Dumbbell.config | Graph of graph

let dumbbell config = Dumbbell config

let graph ?bottleneck ?loss_link ?ack_loss_link ?(flap_links = []) ~spec
    ~endpoints () =
  Graph
    { graph = spec; endpoints; bottleneck; loss_link; ack_loss_link; flap_links }

let parking_lot ~hops ~long_flows ~cross_per_hop ~config =
  let spec, endpoints =
    Net.Topology.parking_lot ~hops ~long_flows ~cross_per_hop ~config ()
  in
  graph ~bottleneck:"bottleneck0" ~loss_link:"bottleneck0"
    ~ack_loss_link:(Printf.sprintf "rbottleneck%d" (hops - 1))
    ~flap_links:[ "bottleneck0"; "rbottleneck0" ]
    ~spec ~endpoints ()

type spec = {
  topology : topology;
  flows : flow_spec list;
  params : Tcp.Params.t;
  seed : int64;
  duration : float;
  forced_drops : Net.Loss.rule list;
  uniform_loss : float;
  ack_loss : float;
  delayed_ack : bool;
  monitor_queue : float option;
  side_delays : float array option;
  trace_out : out_channel option;
  trace_format : [ `Jsonl | `Binary ];
  faults : Faults.Spec.t;
  link_schedule : Faults.Timeline.t option;
  cross : cross list;
  watch_divergence : bool;
  audit_sample : int;
}

let make ~topology ~flows ?(params = Tcp.Params.default) ?(seed = 7L)
    ?(duration = 30.0) ?(forced_drops = []) ?(uniform_loss = 0.0)
    ?(ack_loss = 0.0) ?(delayed_ack = false) ?monitor_queue ?side_delays
    ?trace_out ?(trace_format = `Jsonl) ?(faults = Faults.Spec.none)
    ?link_schedule ?(cross = [])
    ?(watch_divergence = false) ?(audit_sample = 1) () =
  if audit_sample < 0 then
    invalid_arg "Scenario.make: audit_sample must be >= 0";
  {
    topology;
    flows;
    params;
    seed;
    duration;
    forced_drops;
    uniform_loss;
    ack_loss;
    delayed_ack;
    monitor_queue;
    side_delays;
    trace_out;
    trace_format;
    faults;
    link_schedule;
    cross;
    watch_divergence;
    audit_sample;
  }

type flow_result = {
  spec : flow_spec;
  agent : Tcp.Agent.t;
  rr_handle : Core.Rr.handle option;
  receiver : Tcp.Receiver.t;
  trace : Stats.Flow_trace.t;
  mutable completion : Workload.Ftp.completion option;
  mutable mice : Workload.Mice.t option;
}

type cross_result = {
  cross : cross;
  cross_flow : int;
  source : Workload.Cbr.t;
  mutable received : int;
}

type drop_payload = Data of { seq : int } | Ack

type drop = { time : float; flow : int; payload : drop_payload }

type net = Dumbbell_net of Net.Dumbbell.t | Graph_net of Net.Topology.t * graph

let topology_of = function
  | Dumbbell_net d -> Net.Dumbbell.topology d
  | Graph_net (topo, _) -> topo

(* The link whose queue is the gateway under test, if any. *)
let bottleneck_of = function
  | Dumbbell_net _ -> Some "gateway"
  | Graph_net (_, g) -> g.bottleneck

type t = {
  engine : Sim.Engine.t;
  net : net;
  results : flow_result array;
  cross_results : cross_result array;
  drop_log : drop list;
  queue_occupancy : Stats.Series.t option;
  auditor : Audit.Auditor.t;
  divergence : Audit.Divergence.t option;
  injector : Faults.Injector.t option;
}

let rtt_estimate config ~mss ~ack_size =
  let open Net.Dumbbell in
  let tx size bandwidth =
    Sim.Units.transmission_time ~size_bytes:size ~bandwidth_bps:bandwidth
  in
  let one_way size =
    (2.0 *. config.side_delay)
    +. config.bottleneck_delay
    +. (2.0 *. tx size config.side_bandwidth_bps)
    +. tx size config.bottleneck_bandwidth_bps
  in
  one_way mss +. one_way ack_size

let slots = function
  | Dumbbell config -> config.Net.Dumbbell.flows
  | Graph g -> Array.length g.endpoints

(* [asym] re-rates the dumbbell's reverse trunk, which a graph lacks. *)
let faults_fit topology (faults : Faults.Spec.t) =
  match topology with Dumbbell _ -> true | Graph _ -> faults.asym = None

(* Fade and handover levels scale the rate of the links a timeline
   targets, as [run] picks them: the dumbbell's forward trunk, or a
   graph's [flap_links]. *)
let rate_overflow topology (faults : Faults.Spec.t) =
  let rates =
    match topology with
    | Dumbbell config -> [ config.Net.Dumbbell.bottleneck_bandwidth_bps ]
    | Graph g ->
      List.filter_map
        (fun name ->
          Option.map
            (fun (l : Net.Topology.link_spec) -> l.bandwidth_bps)
            (List.assoc_opt name g.graph.Net.Topology.links))
        g.flap_links
  in
  let levels what = List.map (fun level -> (what, level)) in
  List.find_map
    (fun (what, level) ->
      List.find_map
        (fun rate ->
          if Float.is_finite (rate *. level) then None
          else
            Some
              (Printf.sprintf
                 "faults: %s level %g takes a %g bps link to an infinite rate"
                 what level rate))
        rates)
    (Option.fold ~none:[]
       ~some:(fun f -> levels "fade" f.Faults.Spec.fade_levels)
       faults.fade
    @ Option.fold ~none:[]
        ~some:(fun h -> levels "handover" h.Faults.Spec.ho_levels)
        faults.handover)

let run spec =
  if List.length spec.flows + List.length spec.cross <> slots spec.topology then
    invalid_arg
      "Scenario.run: flow + cross-traffic specs do not match topology width";
  if not (faults_fit spec.topology spec.faults) then
    invalid_arg "Scenario.run: asym requires a dumbbell topology";
  (match spec.topology with
  | Graph g ->
    if spec.side_delays <> None then
      invalid_arg "Scenario.run: side_delays requires a dumbbell topology";
    if
      (spec.uniform_loss > 0.0 || spec.forced_drops <> []
      || not (Faults.Spec.is_none spec.faults))
      && g.loss_link = None
    then
      invalid_arg
        "Scenario.run: graph topology needs a loss_link for loss/fault \
         injection";
    if spec.ack_loss > 0.0 && g.ack_loss_link = None then
      invalid_arg "Scenario.run: graph topology needs an ack_loss_link";
    if spec.monitor_queue <> None && g.bottleneck = None then
      invalid_arg "Scenario.run: graph topology needs a bottleneck to monitor"
  | Dumbbell _ -> ());
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create spec.seed in
  (* Fault streams are split off only when faults are enabled, so a
     fault-free spec draws exactly the same stream sequence as before
     lib/faults existed — existing artifacts stay byte-identical. The
     split order (flap, forward, reverse) is part of the reproducibility
     contract. Link timelines (fade/handover/asym, --link-schedule) are
     pure data and draw no RNG at all, so they add nothing to this
     sequence: a spec whose only extras are timelines consumes exactly
     the same streams as a flap-only spec, and an empty timeline is
     indistinguishable from no timeline. *)
  let fault_streams =
    if Faults.Spec.is_none spec.faults then None
    else
      let flap = Sim.Rng.split rng in
      let forward = Sim.Rng.split rng in
      let reverse = Sim.Rng.split rng in
      Some (flap, forward, reverse)
  in
  let link_schedule =
    match spec.link_schedule with
    | Some timeline when not (Faults.Timeline.is_empty timeline) ->
      Some timeline
    | _ -> None
  in
  let injector =
    if fault_streams <> None || link_schedule <> None then
      Some (Faults.Injector.create ~engine ())
    else None
  in
  let drop_log = ref [] in
  let log_drop packet =
    let payload =
      if Net.Packet.is_data packet then
        Data { seq = Net.Packet.seq_exn packet }
      else Ack
    in
    drop_log :=
      { time = Sim.Engine.now engine; flow = packet.Net.Packet.flow; payload }
      :: !drop_log
  in
  (* The topology is needed inside the loss wrappers for per-flow drop
     accounting, but the wrappers are topology constructor arguments;
     route the callbacks through a cell. *)
  let topo_cell = ref None in
  let injected_drop packet =
    Option.iter (fun topo -> Net.Topology.count_drop topo packet) !topo_cell;
    log_drop packet
  in
  (* Fault wrappers sit innermost (right at the trunk queue), loss
     wrappers outside them: a packet first survives injected loss, then
     suffers reordering/jitter on its way into the queue. *)
  let wrap_faults ~path ~stream next =
    match (fault_streams, injector) with
    | Some _, Some inj ->
      let next =
        match spec.faults.Faults.Spec.jitter with
        | Some max_jitter ->
          Faults.Injector.jitter inj ~rng:stream ~max_jitter next
        | None -> next
      in
      (match spec.faults.Faults.Spec.reorder with
      | Some { Faults.Spec.prob; max_extra } ->
        Faults.Injector.reorder inj ~path ~rng:stream ~prob ~max_extra next
      | None -> next)
    | _ -> next
  in
  let wrap_bottleneck next =
    let next =
      match fault_streams with
      | Some (_, forward, _) ->
        wrap_faults ~path:"bottleneck" ~stream:forward next
      | None -> next
    in
    let next =
      if spec.uniform_loss > 0.0 then
        Net.Loss.uniform ~rng:(Sim.Rng.split rng) ~rate:spec.uniform_loss
          ~on_drop:injected_drop next
      else next
    in
    if spec.forced_drops <> [] then
      Net.Loss.drop_list ~rules:spec.forced_drops ~on_drop:injected_drop next
    else next
  in
  let wrap_reverse next =
    let next =
      match fault_streams with
      | Some (_, _, reverse) when spec.faults.Faults.Spec.reverse ->
        wrap_faults ~path:"reverse" ~stream:reverse next
      | _ -> next
    in
    if spec.ack_loss > 0.0 then
      Net.Loss.uniform ~rng:(Sim.Rng.split rng) ~rate:spec.ack_loss
        ~data_only:false ~on_drop:injected_drop next
    else next
  in
  let net =
    match spec.topology with
    | Dumbbell config ->
      let directions =
        Array.of_list
          (List.map (fun f -> f.direction) spec.flows
          @ List.map (fun c -> c.cross_direction) spec.cross)
      in
      Dumbbell_net
        (Net.Dumbbell.create ~engine ~config ~rng
           ~taps:
             [ ("gateway", wrap_bottleneck); ("reverse_gateway", wrap_reverse) ]
           ~on_drop:log_drop ?side_delays:spec.side_delays ~directions ())
    | Graph g ->
      (* Tap construction order mirrors the dumbbell path — data-path
         wraps before ACK-path wraps — so the loss streams split off
         [rng] in the same sequence either way. *)
      let taps =
        (match g.loss_link with
        | Some link -> [ (link, wrap_bottleneck) ]
        | None -> [])
        @
        match g.ack_loss_link with
        | Some link -> [ (link, wrap_reverse) ]
        | None -> []
      in
      Graph_net
        ( Net.Topology.create ~engine ~spec:g.graph ~rng ~taps
            ~on_drop:log_drop ~flows:g.endpoints (),
          g )
  in
  let topo = topology_of net in
  topo_cell := Some topo;
  (* The (name, link) pairs a fault acts on: [dumbbell] names the
     dumbbell's trunk links, while on a graph the spec's [flap_links]
     fail as one. *)
  let fault_links ~dumbbell ~purpose =
    match net with
    | Dumbbell_net _ ->
      List.map (fun (name, id) -> (name, Net.Topology.link topo id)) dumbbell
    | Graph_net (_, g) ->
      if g.flap_links = [] then
        invalid_arg
          ("Scenario.run: graph topology needs flap_links " ^ purpose);
      List.map (fun name -> (name, Net.Topology.link topo name)) g.flap_links
  in
  (* A flap models an outage of the physical trunk: on the dumbbell both
     directions cut together, under the same schedule. *)
  (match (fault_streams, injector) with
  | Some (flap_rng, _, _), Some inj -> (
    match
      Faults.Spec.flap_schedule spec.faults ~rng:flap_rng ~until:spec.duration
    with
    | None -> ()
    | Some schedule ->
      let policy = spec.faults.Faults.Spec.flap_policy in
      List.iter
        (fun (name, link) ->
          Faults.Injector.flap_link inj ~name ~policy ~on_drop:injected_drop
            link schedule)
        (fault_links ~purpose:"to flap"
           ~dumbbell:
             [ ("bottleneck", "gateway"); ("reverse", "reverse_gateway") ]))
  | _ -> ());
  (* Time-varying link conditions. Targets mirror the flap convention:
     the dumbbell's forward trunk, or the graph spec's [flap_links].
     Each vary_link is applied before any flap_link it composes with
     (handover), so a restore coinciding with a rate step restarts
     service at the new rate. *)
  (match injector with
  | Some inj
    when link_schedule <> None || Faults.Spec.has_timeline spec.faults ->
    let targets =
      fault_links ~purpose:"for link timelines"
        ~dumbbell:[ ("bottleneck", "gateway") ]
    in
    Option.iter
      (fun timeline ->
        List.iter
          (fun (name, link) ->
            Faults.Injector.vary_link inj ~name link timeline)
          targets)
      link_schedule;
    (match spec.faults.Faults.Spec.fade with
    | Some { Faults.Spec.fade_period; fade_levels } ->
      List.iter
        (fun (name, link) ->
          Faults.Injector.vary_link inj ~name link
            (Faults.Timeline.fading ~period:fade_period
               ~base_bps:(Net.Link.rate_bps link) ~levels:fade_levels
               ~until:spec.duration ()))
        targets
    | None -> ());
    (match spec.faults.Faults.Spec.handover with
    | Some { Faults.Spec.ho_period; ho_gap; ho_levels } ->
      List.iter
        (fun (name, link) ->
          let timeline, schedule =
            Faults.Timeline.handover ~period:ho_period ~gap:ho_gap
              ~base_bps:(Net.Link.rate_bps link) ~levels:ho_levels
              ~until:spec.duration ()
          in
          Faults.Injector.vary_link inj ~name link timeline;
          (* The down-gap always burst-loses the backlog: a handover is
             a cell change, not a pause — the old cell's queue does not
             follow the mobile. *)
          Faults.Injector.flap_link inj ~name ~policy:`Drop_queued
            ~on_drop:injected_drop link schedule)
        targets
    | None -> ());
    (match spec.faults.Faults.Spec.asym with
    | Some ratio ->
      (* A dumbbell, by [faults_fit]. *)
      let forward = Net.Topology.link topo "gateway" in
      let reverse = Net.Topology.link topo "reverse_gateway" in
      (* One step at t = 0 rather than a direct set_rate at setup, so
         the change is evented and traced like any other timeline
         step. *)
      Faults.Injector.vary_link inj ~name:"reverse" reverse
        (Faults.Timeline.of_steps
           [
             {
               Faults.Timeline.at = 0.0;
               rate = Some (Net.Link.rate_bps forward /. ratio);
               delay = None;
             };
           ])
    | None -> ())
  | _ -> ());
  (* [audit_sample = 0] turns auditing off entirely — the clean-run
     reference for measuring audit overhead. The auditor object still
     exists (trivially ok, zero checks); it just observes nothing. *)
  let audit_on = spec.audit_sample > 0 in
  let auditor =
    Audit.Auditor.create ~engine ~sample:(max 1 spec.audit_sample) ()
  in
  (* Divergence watching is opt-in: it only attaches observation hooks,
     but keeping it off by default means classic specs build exactly the
     same hook lists as before this monitor existed. *)
  let divergence =
    if spec.watch_divergence then Some (Audit.Divergence.create ~engine ())
    else None
  in
  let tracer =
    Option.map
      (fun out -> Audit.Trace.create ~format:spec.trace_format ~out ())
      spec.trace_out
  in
  let net_queues =
    match net with
    | Dumbbell_net topology -> Net.Dumbbell.queues topology
    | Graph_net (topology, _) -> Net.Topology.queues topology
  in
  List.iter
    (fun (name, queue) ->
      if audit_on then Audit.Auditor.attach_queue auditor ~name queue;
      Option.iter
        (fun tr -> Audit.Trace.attach_queue tr ~engine ~name queue)
        tracer)
    net_queues;
  Option.iter
    (fun tr ->
      Option.iter (fun inj -> Audit.Trace.attach_injector tr inj) injector)
    tracer;
  let make_flow flow_id flow_spec =
    let ({ agent; rr_handle } : built) =
      flow_spec.make ~engine ~params:spec.params ~flow:flow_id
        ~emit:(fun packet ->
          Net.Topology.inject_data topo ~flow:flow_id packet)
        ()
    in
    let receiver =
      Tcp.Receiver.create ~engine ~flow:flow_id
        ~emit:(fun packet -> Net.Topology.inject_ack topo ~flow:flow_id packet)
        ~sack:agent.Tcp.Agent.wants_sack
        ~ack_size:spec.params.Tcp.Params.ack_size
        ~delayed_ack:spec.delayed_ack ()
    in
    Net.Topology.on_data topo ~flow:flow_id (Tcp.Receiver.deliver receiver);
    Net.Topology.on_ack topo ~flow:flow_id agent.Tcp.Agent.deliver_ack;
    let trace = Stats.Flow_trace.attach agent in
    if audit_on then
      Audit.Auditor.attach_sender auditor ?rr:rr_handle
        ~label:(Printf.sprintf "flow %d (%s)" flow_id flow_spec.label)
        agent;
    Option.iter
      (fun monitor ->
        Audit.Divergence.attach_sender monitor
          ~label:(Printf.sprintf "flow %d (%s)" flow_id flow_spec.label)
          agent)
      divergence;
    Option.iter (fun tr -> Audit.Trace.attach_sender tr agent) tracer;
    let result =
      {
        spec = flow_spec;
        agent;
        rr_handle;
        receiver;
        trace;
        completion = None;
        mice = None;
      }
    in
    (match flow_spec.source with
    | Infinite ->
      Workload.Ftp.persistent ~engine ~agent ~at:flow_spec.start
    | File_bytes bytes ->
      Workload.Ftp.file ~engine ~agent ~at:flow_spec.start ~bytes
        ~on_complete:(fun completion -> result.completion <- Some completion)
    | Mice profile ->
      (* Each mice source gets its own stream, split here in flow order
         — deterministic, and absent entirely from mice-free specs. *)
      let profile =
        if profile.Workload.Mice.until = infinity then
          { profile with Workload.Mice.until = spec.duration }
        else profile
      in
      let profile =
        if profile.Workload.Mice.start = 0.0 then
          { profile with Workload.Mice.start = flow_spec.start }
        else profile
      in
      result.mice <-
        Some
          (Workload.Mice.create ~engine ~agent ~rng:(Sim.Rng.split rng) profile));
    result
  in
  let results = Array.of_list (List.mapi make_flow spec.flows) in
  let tcp_flows = List.length spec.flows in
  let cross_results =
    Array.of_list
      (List.mapi
         (fun i cross ->
           let cross_flow = tcp_flows + i in
           let source =
             Workload.Cbr.create ~engine ~flow:cross_flow
               ~rate_bps:cross.rate_bps ~packet_bytes:cross.packet_bytes
               ~at:0.0 ~until:spec.duration
               ~emit:(fun packet ->
                 Net.Topology.inject_data topo ~flow:cross_flow packet)
               ()
           in
           let result = { cross; cross_flow; source; received = 0 } in
           Net.Topology.on_data topo ~flow:cross_flow (fun _ ->
               result.received <- result.received + 1);
           result)
         spec.cross)
  in
  let queue_occupancy =
    Option.map
      (fun interval ->
        let queue = Net.Topology.queue topo (Option.get (bottleneck_of net)) in
        Stats.Queue_monitor.sample ~engine
          ~probe:queue.Net.Queue_disc.length ~interval ~until:spec.duration)
      spec.monitor_queue
  in
  (* The tracer stages its JSONL lines in a buffer; drain it on every
     exit path, including a raising run — otherwise the tail of the
     trace is lost exactly when it is most needed. *)
  Fun.protect
    ~finally:(fun () -> Option.iter Audit.Trace.flush tracer)
    (fun () ->
      Sim.Engine.run_until engine ~time:spec.duration;
      Audit.Auditor.finalize auditor);
  if not (Audit.Auditor.ok auditor) then
    prerr_string (Audit.Auditor.report auditor);
  {
    engine;
    net;
    results;
    cross_results;
    drop_log = List.rev !drop_log;
    queue_occupancy;
    auditor;
    divergence;
    injector;
  }

let drops t ~flow = Net.Topology.drops_of_flow (topology_of t.net) flow

let counters t ~flow =
  t.results.(flow).agent.Tcp.Agent.base.Tcp.Sender_common.counters

let goodput_bps t ~flow ~t0 ~t1 =
  let result = t.results.(flow) in
  Stats.Metrics.effective_throughput_bps result.trace
    ~mss:result.agent.Tcp.Agent.base.Tcp.Sender_common.params.Tcp.Params.mss
    ~t0 ~t1

let fault_drops t =
  match t.injector with
  | Some injector -> Faults.Injector.fault_drops injector
  | None -> 0

let red_stats t =
  Option.bind (bottleneck_of t.net) (Net.Topology.red_stats (topology_of t.net))

let tracefile t =
  (* Merge per-flow send/ack traces and the drop log into time-ordered
     ns-2-style lines. Node 0 stands for the sender side, node 1 for
     the receiver side. *)
  let line event time kind size flow seq =
    Printf.sprintf "%c %.6f 0 1 %s %d ------- %d 0.0 1.0 %d" event time kind
      size flow seq
  in
  let events = ref [] in
  Array.iteri
    (fun flow result ->
      let trace = result.trace in
      List.iter
        (fun (time, seq) ->
          events := (time, line '+' time "tcp" 1000 flow (int_of_float seq)) :: !events)
        (Stats.Series.to_list trace.Stats.Flow_trace.sends);
      List.iter
        (fun (time, ackno) ->
          events := (time, line 'r' time "ack" 40 flow (int_of_float ackno)) :: !events)
        (Stats.Series.to_list trace.Stats.Flow_trace.acks))
    t.results;
  List.iter
    (fun { time; flow; payload } ->
      let kind, size, seq =
        match payload with
        | Data { seq } -> ("tcp", 1000, seq)
        | Ack -> ("ack", 40, 0)
      in
      events := (time, line 'd' time kind size flow seq) :: !events)
    t.drop_log;
  let ordered =
    List.stable_sort (fun (a, _) (b, _) -> compare a b) (List.rev !events)
  in
  String.concat "\n" (List.map snd ordered) ^ "\n"

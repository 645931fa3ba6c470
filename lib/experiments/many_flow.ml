(* Many-flow scale scenario: one Tcp.Flock over an aggregate graph
   topology, summarised with streaming statistics.

   The per-flow Scenario machinery allocates agents, receivers and
   trace series per flow — fine for the paper's 1..20 flows, hopeless
   for 50 000. This scenario instead drives a flat-array flock through
   a six-link aggregate dumbbell (every flow shares the same src and
   dst hosts), so the whole run is O(flows) memory: flock slots, the
   topology's flow tables, a Welford accumulator and one bounded
   reservoir for quantiles. *)

type outcome = {
  flows : int;
  duration : float;
  bottleneck_bps : float;
  aggregate_goodput_bps : float;
  goodput : Stats.Welford.t;  (* per-flow goodput stream, bps *)
  quantiles : (float * float) list;  (* (q, goodput bps), ascending q *)
  jain : float;
  delivered_segments : int;
  retransmits : int;
  timeouts : int;
  drops : int;
}

(* The aggregate dumbbell: src -> r1 -> r2 -> dst with a reverse path
   for ACKs. Access and exit links run at [access_factor] times the
   bottleneck so only the two trunks shape the traffic. *)
let spec ~bottleneck_bps ~buffer =
  let open Net.Topology in
  let fast = 4.0 *. bottleneck_bps in
  let side ~from_node ~to_node =
    {
      from_node;
      to_node;
      bandwidth_bps = fast;
      delay = 0.001;
      queue = Droptail { capacity = 65_536 };
    }
  in
  let trunk ~from_node ~to_node =
    {
      from_node;
      to_node;
      bandwidth_bps = bottleneck_bps;
      delay = 0.010;
      queue = Droptail { capacity = buffer };
    }
  in
  {
    nodes =
      [
        { node = "src"; routes = []; default_route = Some "acc_fwd" };
        {
          node = "r1";
          routes = [ { target = "src"; via = "exit_rev" } ];
          default_route = Some "gateway";
        };
        {
          node = "r2";
          routes = [ { target = "dst"; via = "exit_fwd" } ];
          default_route = Some "reverse_gateway";
        };
        { node = "dst"; routes = []; default_route = Some "acc_rev" };
      ];
    links =
      [
        ("acc_fwd", side ~from_node:"src" ~to_node:"r1");
        ("gateway", trunk ~from_node:"r1" ~to_node:"r2");
        ("exit_fwd", side ~from_node:"r2" ~to_node:"dst");
        ("acc_rev", side ~from_node:"dst" ~to_node:"r2");
        ("reverse_gateway", trunk ~from_node:"r2" ~to_node:"r1");
        ("exit_rev", side ~from_node:"r1" ~to_node:"src");
      ];
  }

let quantile_points = [ 0.10; 0.50; 0.90; 0.99 ]

let bottleneck_bps = Sim.Units.mbps 100.0

let stagger = 1.0

let run ?(flows = 50_000) ?(duration = 60.0) ?(seed = 7L) ?(buffer = 1024)
    ?(params = { Tcp.Params.default with rwnd = 20 }) () =
  if flows < 1 then invalid_arg "Many_flow.run: flows < 1";
  if duration <= 0.0 then invalid_arg "Many_flow.run: duration <= 0";
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create seed in
  let topo =
    Net.Topology.create ~engine
      ~spec:(spec ~bottleneck_bps ~buffer)
      ~rng
      ~flows:(Array.make flows { Net.Topology.src = "src"; dst = "dst" })
      ()
  in
  let flock =
    Tcp.Flock.create ~engine ~params ~flows
      ~inject_data:(fun ~flow packet ->
        Net.Topology.inject_data topo ~flow packet)
      ~inject_ack:(fun ~flow packet -> Net.Topology.inject_ack topo ~flow packet)
      ()
  in
  (* One shared dispatch closure for the whole flock, not a handler per
     flow — the point of the flat path. *)
  Net.Topology.set_data_dispatch topo (Tcp.Flock.deliver_data flock);
  Net.Topology.set_ack_dispatch topo (Tcp.Flock.deliver_ack flock);
  Tcp.Flock.start flock ~stagger ();
  Sim.Engine.run_until engine ~time:duration;
  let welford = Stats.Welford.create () in
  let reservoir =
    Stats.Reservoir.create ~capacity:2048 ~rng:(Sim.Rng.split rng) ()
  in
  let sum = ref 0.0 and sumsq = ref 0.0 in
  for flow = 0 to flows - 1 do
    let goodput = Tcp.Flock.goodput_bps flock flow ~duration in
    Stats.Welford.add welford goodput;
    Stats.Reservoir.add reservoir goodput;
    sum := !sum +. goodput;
    sumsq := !sumsq +. (goodput *. goodput)
  done;
  let jain =
    if !sumsq = 0.0 then 1.0
    else !sum *. !sum /. (float_of_int flows *. !sumsq)
  in
  {
    flows;
    duration;
    bottleneck_bps;
    aggregate_goodput_bps = !sum;
    goodput = welford;
    quantiles =
      List.combine quantile_points
        (Stats.Reservoir.quantiles reservoir quantile_points);
    jain;
    delivered_segments = Tcp.Flock.total_acked_segments flock;
    retransmits = Tcp.Flock.total_retransmits flock;
    timeouts = Tcp.Flock.total_timeouts flock;
    drops = Net.Topology.total_drops topo;
  }

let report outcome =
  let buffer = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string buffer) fmt in
  add "many-flow: %d flocked NewReno-shaped flows, %.0f Mbps bottleneck, %g s\n"
    outcome.flows
    (outcome.bottleneck_bps /. 1e6)
    outcome.duration;
  add "  aggregate goodput : %.2f Mbps (%.1f%% of bottleneck)\n"
    (outcome.aggregate_goodput_bps /. 1e6)
    (100.0 *. outcome.aggregate_goodput_bps /. outcome.bottleneck_bps);
  add "  per-flow goodput  : mean %.2f Kbps, stddev %.2f Kbps\n"
    (Stats.Welford.mean outcome.goodput /. 1e3)
    (Stats.Welford.stddev outcome.goodput /. 1e3);
  add "  quantiles (Kbps)  : %s\n"
    (String.concat ", "
       (List.map
          (fun (q, v) -> Printf.sprintf "p%.0f %.2f" (100.0 *. q) (v /. 1e3))
          outcome.quantiles));
  add "  fairness (Jain)   : %.4f\n" outcome.jain;
  add "  delivered %d segment(s), %d retransmit(s), %d timeout(s), %d drop(s)\n"
    outcome.delivered_segments outcome.retransmits outcome.timeouts
    outcome.drops;
  Buffer.contents buffer

(* Dumbbell topology wiring: data reaches the right receiver, ACKs come
   back, drops are accounted per flow, loss wrappers interpose. *)

let data ~flow seq = Net.Packet.data ~uid:seq ~flow ~seq ~size_bytes:1000 ~born:0.0

let ack ~flow ackno =
  Net.Packet.ack ~uid:ackno ~flow ~ackno ~size_bytes:40 ~born:0.0 ()

let build ?(flows = 2) ?taps () =
  let engine = Sim.Engine.create () in
  let topology =
    Net.Dumbbell.create ~engine
      ~config:(Net.Dumbbell.paper_config ~flows)
      ~rng:(Sim.Rng.create 1L) ?taps ()
  in
  (engine, Net.Dumbbell.topology topology)

let test_data_path () =
  let engine, topology = build () in
  let got = ref [] in
  Net.Topology.on_data topology ~flow:0 (fun p ->
      got := (0, Net.Packet.seq_exn p) :: !got);
  Net.Topology.on_data topology ~flow:1 (fun p ->
      got := (1, Net.Packet.seq_exn p) :: !got);
  Net.Topology.inject_data topology ~flow:0 (data ~flow:0 10);
  Net.Topology.inject_data topology ~flow:1 (data ~flow:1 20);
  Sim.Engine.run engine;
  Alcotest.(check bool) "flow 0 delivered" true (List.mem (0, 10) !got);
  Alcotest.(check bool) "flow 1 delivered" true (List.mem (1, 20) !got);
  Alcotest.(check int) "nothing else" 2 (List.length !got)

let test_data_latency () =
  let engine, topology = build ~flows:1 () in
  let at = ref 0.0 in
  Net.Topology.on_data topology ~flow:0 (fun _ -> at := Sim.Engine.now engine);
  Net.Topology.inject_data topology ~flow:0 (data ~flow:0 1);
  Sim.Engine.run engine;
  (* access (0.8ms tx + 1ms) + bottleneck (10ms tx + 96ms) + exit access
     (0.8ms tx + 1ms) = 109.6 ms. *)
  Alcotest.(check (float 1e-6)) "one-way latency" 0.1096 !at

let test_ack_path () =
  let engine, topology = build () in
  let got = ref [] in
  Net.Topology.on_ack topology ~flow:1 (fun p ->
      match Net.Packet.kind p with
      | Net.Packet.Ack { ackno; _ } -> got := ackno :: !got
      | Net.Packet.Data _ -> Alcotest.fail "data on ack path");
  Net.Topology.on_ack topology ~flow:0 (fun _ -> Alcotest.fail "wrong flow");
  Net.Topology.inject_ack topology ~flow:1 (ack ~flow:1 33);
  Sim.Engine.run engine;
  Alcotest.(check (list int)) "ack delivered" [ 33 ] !got

let test_drop_ledger () =
  let engine, topology = build ~flows:1 () in
  Net.Topology.on_data topology ~flow:0 (fun _ -> ());
  (* Overflow the 8-packet bottleneck queue with a burst (access link is
     12.5x faster than the bottleneck, so the queue fills). *)
  for i = 1 to 60 do
    Net.Topology.inject_data topology ~flow:0 (data ~flow:0 i)
  done;
  Sim.Engine.run engine;
  Alcotest.(check bool)
    (Printf.sprintf "drops %d recorded" (Net.Topology.drops_of_flow topology 0))
    true
    (Net.Topology.drops_of_flow topology 0 > 0);
  Alcotest.(check int) "total = flow" (Net.Topology.drops_of_flow topology 0)
    (Net.Topology.total_drops topology)

let test_gateway_tap () =
  let seen = ref [] in
  let wrap next packet =
    seen := Net.Packet.seq_exn packet :: !seen;
    next packet
  in
  let engine, topology = build ~flows:1 ~taps:[ ("gateway", wrap) ] () in
  let delivered = ref 0 in
  Net.Topology.on_data topology ~flow:0 (fun _ -> incr delivered);
  Net.Topology.inject_data topology ~flow:0 (data ~flow:0 5);
  Sim.Engine.run engine;
  Alcotest.(check (list int)) "wrapper saw the packet" [ 5 ] !seen;
  Alcotest.(check int) "still delivered" 1 !delivered

let test_count_drop () =
  let _, topology = build ~flows:2 () in
  Net.Topology.count_drop topology (data ~flow:1 1);
  Net.Topology.count_drop topology (data ~flow:1 2);
  Alcotest.(check int) "ledger" 2 (Net.Topology.drops_of_flow topology 1);
  Alcotest.(check int) "other flow untouched" 0 (Net.Topology.drops_of_flow topology 0)

let test_side_delays () =
  let engine = Sim.Engine.create () in
  let topology =
    Net.Dumbbell.topology
      (Net.Dumbbell.create ~engine
         ~config:(Net.Dumbbell.paper_config ~flows:2)
         ~rng:(Sim.Rng.create 1L)
         ~side_delays:[| 0.001; 0.051 |]
         ())
  in
  let arrivals = Array.make 2 0.0 in
  for flow = 0 to 1 do
    Net.Topology.on_data topology ~flow (fun _ ->
        arrivals.(flow) <- Sim.Engine.now engine);
    Net.Topology.inject_data topology ~flow (data ~flow 1)
  done;
  Sim.Engine.run engine;
  (* Two access hops per direction: the slow flow pays 2 * 50 ms more
     one-way. *)
  Alcotest.(check (float 1e-6)) "delay difference" 0.1
    (arrivals.(1) -. arrivals.(0))

let test_side_delays_validated () =
  let engine = Sim.Engine.create () in
  Alcotest.check_raises "length"
    (Invalid_argument "Dumbbell.create: side_delays length mismatch")
    (fun () ->
      ignore
        (Net.Dumbbell.create ~engine
           ~config:(Net.Dumbbell.paper_config ~flows:3)
           ~rng:(Sim.Rng.create 1L)
           ~side_delays:[| 0.001 |]
           ()))

let test_red_gateway_exposed () =
  let engine = Sim.Engine.create () in
  let config =
    {
      (Net.Dumbbell.paper_config ~flows:1) with
      gateway = Net.Dumbbell.Red { capacity = 25; params = Net.Red.paper_params };
    }
  in
  let topology =
    Net.Dumbbell.topology
      (Net.Dumbbell.create ~engine ~config ~rng:(Sim.Rng.create 1L) ())
  in
  Alcotest.(check bool) "red stats available" true
    (Net.Topology.red_stats topology "gateway" <> None);
  Alcotest.(check string) "queue kind" "red"
    (Net.Topology.queue topology "gateway").Net.Queue_disc.name

let suite =
  [
    ( "dumbbell",
      [
        Alcotest.test_case "data path" `Quick test_data_path;
        Alcotest.test_case "data latency" `Quick test_data_latency;
        Alcotest.test_case "ack path" `Quick test_ack_path;
        Alcotest.test_case "drop ledger" `Quick test_drop_ledger;
        Alcotest.test_case "bottleneck wrapper" `Quick test_gateway_tap;
        Alcotest.test_case "count_drop" `Quick test_count_drop;
        Alcotest.test_case "side delays" `Quick test_side_delays;
        Alcotest.test_case "side delays validated" `Quick test_side_delays_validated;
        Alcotest.test_case "red gateway" `Quick test_red_gateway_exposed;
      ] );
  ]

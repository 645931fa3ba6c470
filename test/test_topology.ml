(* Net.Topology: spec validation, routing, taps, the drop ledger, the
   builders, and QCheck conservation properties (every injected packet
   is delivered or in the ledger). *)

let droptail capacity = Net.Topology.Droptail { capacity }

let link ?(bandwidth_bps = 1e6) ?(delay = 0.001) ?(capacity = 100) from_node
    to_node =
  {
    Net.Topology.from_node;
    to_node;
    bandwidth_bps;
    delay;
    queue = droptail capacity;
  }

let node ?(routes = []) ?default_route name =
  { Net.Topology.node = name; routes; default_route }

(* a <-> b over one link pair *)
let pair_spec ?(ab = link "a" "b") ?(ba = link "b" "a") () =
  {
    Net.Topology.nodes =
      [ node "a" ~default_route:"ab"; node "b" ~default_route:"ba" ];
    links = [ ("ab", ab); ("ba", ba) ];
  }

let endpoints_ab = [| { Net.Topology.src = "a"; dst = "b" } |]

let check_invalid message f =
  Alcotest.check_raises message (Invalid_argument message) (fun () ->
      ignore (f ()))

let test_validation_rejects () =
  let validate spec = Net.Topology.validate spec ~flows:endpoints_ab in
  check_invalid "Topology: link \"ab\" bandwidth <= 0" (fun () ->
      validate (pair_spec ~ab:(link ~bandwidth_bps:0.0 "a" "b") ()));
  check_invalid "Topology: link \"ab\" negative delay" (fun () ->
      validate (pair_spec ~ab:(link ~delay:(-0.1) "a" "b") ()));
  check_invalid "Topology: link \"ab\" capacity < 1" (fun () ->
      validate (pair_spec ~ab:(link ~capacity:0 "a" "b") ()));
  check_invalid "Topology: duplicate link \"ab\"" (fun () ->
      let spec = pair_spec () in
      validate { spec with Net.Topology.links = spec.Net.Topology.links @ [ ("ab", link "a" "b") ] });
  check_invalid "Topology: undeclared node \"c\"" (fun () ->
      validate (pair_spec ~ab:(link "a" "c") ()));
  check_invalid "Topology: flow endpoint at undeclared node \"z\"" (fun () ->
      Net.Topology.validate (pair_spec ())
        ~flows:[| { Net.Topology.src = "z"; dst = "b" } |]);
  check_invalid "Topology: flow source and destination coincide at \"a\""
    (fun () ->
      Net.Topology.validate (pair_spec ())
        ~flows:[| { Net.Topology.src = "a"; dst = "a" } |])

(* NaN passes a [<= 0] test; before the compiler refused it, a NaN
   rate failed an assertion at the first send. *)
let test_validation_rejects_non_finite () =
  let validate spec = Net.Topology.validate spec ~flows:endpoints_ab in
  List.iter
    (fun bad ->
      check_invalid "Topology: link \"ab\" bandwidth not finite" (fun () ->
          validate (pair_spec ~ab:(link ~bandwidth_bps:bad "a" "b") ()));
      check_invalid "Topology: link \"ab\" delay not finite" (fun () ->
          validate (pair_spec ~ab:(link ~delay:bad "a" "b") ())))
    [ nan; -.nan; infinity ];
  let engine = Sim.Engine.create () in
  check_invalid "Topology: link \"ba\" bandwidth not finite" (fun () ->
      Net.Topology.create ~engine
        ~spec:(pair_spec ~ba:(link ~bandwidth_bps:nan "b" "a") ())
        ~rng:(Sim.Rng.create 1L) ~flows:endpoints_ab ())

let test_validation_rejects_bad_routes () =
  (* c is attached but a's data for c bounces between a and b forever *)
  let looping =
    {
      Net.Topology.nodes =
        [
          node "a" ~default_route:"ab";
          node "b" ~default_route:"ba";
          node "c" ~default_route:"ca";
        ];
      links =
        [ ("ab", link "a" "b"); ("ba", link "b" "a"); ("ca", link "c" "a") ];
    }
  in
  check_invalid "Topology: route from \"a\" to \"c\" loops" (fun () ->
      Net.Topology.validate looping
        ~flows:[| { Net.Topology.src = "a"; dst = "c" } |]);
  (* b has no default and no route entry for a: ACKs cannot get home *)
  let dead_end =
    {
      Net.Topology.nodes = [ node "a" ~default_route:"ab"; node "b" ];
      links = [ ("ab", link "a" "b"); ("ba", link "b" "a") ];
    }
  in
  check_invalid "Topology: no route toward \"a\" at \"b\"" (fun () ->
      Net.Topology.validate dead_end ~flows:endpoints_ab)

let test_delivery_and_introspection () =
  let engine = Sim.Engine.create () in
  let t =
    Net.Topology.create ~engine ~spec:(pair_spec ()) ~rng:(Sim.Rng.create 1L)
      ~flows:endpoints_ab ()
  in
  let data_seen = ref [] and acks_seen = ref [] in
  Net.Topology.on_data t ~flow:0 (fun p ->
      data_seen := p.Net.Packet.uid :: !data_seen);
  Net.Topology.on_ack t ~flow:0 (fun p ->
      acks_seen := p.Net.Packet.uid :: !acks_seen);
  Net.Topology.inject_data t ~flow:0
    (Net.Packet.data ~uid:1 ~flow:0 ~seq:0 ~size_bytes:1000 ~born:0.0);
  Net.Topology.inject_ack t ~flow:0
    (Net.Packet.ack ~uid:2 ~flow:0 ~ackno:0 ~size_bytes:40 ~born:0.0 ());
  Sim.Engine.run engine;
  Alcotest.(check (list int)) "data delivered at b" [ 1 ] !data_seen;
  Alcotest.(check (list int)) "ack delivered at a" [ 2 ] !acks_seen;
  Alcotest.(check int) "two flows... one" 1 (Net.Topology.flows t);
  Alcotest.(check (list string))
    "link names in realization order" [ "ab"; "ba" ]
    (Net.Topology.link_names t);
  Alcotest.(check int) "no drops" 0 (Net.Topology.total_drops t)

let test_taps_intercept () =
  let engine = Sim.Engine.create () in
  let swallowed = ref 0 in
  let t =
    Net.Topology.create ~engine ~spec:(pair_spec ()) ~rng:(Sim.Rng.create 1L)
      ~taps:[ ("ab", fun _continue _packet -> incr swallowed) ]
      ~flows:endpoints_ab ()
  in
  let delivered = ref 0 in
  Net.Topology.on_data t ~flow:0 (fun _ -> incr delivered);
  Net.Topology.inject_data t ~flow:0
    (Net.Packet.data ~uid:1 ~flow:0 ~seq:0 ~size_bytes:1000 ~born:0.0);
  Sim.Engine.run engine;
  Alcotest.(check int) "tap swallowed the packet" 1 !swallowed;
  Alcotest.(check int) "nothing delivered" 0 !delivered;
  check_invalid "Topology: duplicate tap on \"ab\"" (fun () ->
      Net.Topology.create ~engine ~spec:(pair_spec ()) ~rng:(Sim.Rng.create 1L)
        ~taps:[ ("ab", (fun k p -> k p)); ("ab", fun k p -> k p) ]
        ~flows:endpoints_ab ());
  check_invalid "Topology: tap on undeclared link \"nope\"" (fun () ->
      Net.Topology.create ~engine ~spec:(pair_spec ()) ~rng:(Sim.Rng.create 1L)
        ~taps:[ ("nope", fun k p -> k p) ]
        ~flows:endpoints_ab ())

let test_drop_ledger () =
  let engine = Sim.Engine.create () in
  let t =
    Net.Topology.create ~engine
      ~spec:(pair_spec ~ab:(link ~capacity:1 ~bandwidth_bps:1e4 "a" "b") ())
      ~rng:(Sim.Rng.create 1L) ~flows:endpoints_ab ()
  in
  Net.Topology.set_data_dispatch t (fun _ -> ());
  for uid = 1 to 10 do
    Net.Topology.inject_data t ~flow:0
      (Net.Packet.data ~uid ~flow:0 ~seq:uid ~size_bytes:1000 ~born:0.0)
  done;
  Sim.Engine.run engine;
  (* one in service + one queued survive; the other eight are dropped *)
  Alcotest.(check int) "ledger counts the drops" 8
    (Net.Topology.drops_of_flow t 0);
  Alcotest.(check int) "total equals per-flow sum" 8 (Net.Topology.total_drops t)

let test_builders_validate () =
  Alcotest.check_raises "flows < 1"
    (Invalid_argument "Dumbbell.create: flows < 1") (fun () ->
      ignore
        (Net.Topology.dumbbell ~config:(Net.Dumbbell.paper_config ~flows:0) ()));
  Alcotest.check_raises "side_delays mismatch"
    (Invalid_argument "Dumbbell.create: side_delays length mismatch") (fun () ->
      ignore
        (Net.Topology.dumbbell ~config:(Net.Dumbbell.paper_config ~flows:2)
           ~side_delays:[| 0.01 |] ()));
  check_invalid "Topology.parking_lot: hops < 1" (fun () ->
      Net.Topology.parking_lot ~hops:0 ~long_flows:1 ~cross_per_hop:0
        ~config:(Net.Dumbbell.paper_config ~flows:1) ());
  check_invalid "Topology.fat_tree: pods < 2" (fun () ->
      Net.Topology.fat_tree ~pods:1 ~hosts_per_pod:1
        ~config:(Net.Dumbbell.paper_config ~flows:1) ());
  let spec, endpoints =
    Net.Topology.parking_lot ~hops:3 ~long_flows:2 ~cross_per_hop:2
      ~config:(Net.Dumbbell.paper_config ~flows:8) ()
  in
  Alcotest.(check int) "parking-lot endpoint count" 8 (Array.length endpoints);
  Net.Topology.validate spec ~flows:endpoints;
  let spec, endpoints =
    Net.Topology.fat_tree ~pods:3 ~hosts_per_pod:2
      ~config:(Net.Dumbbell.paper_config ~flows:6) ()
  in
  Alcotest.(check int) "fat-tree endpoint count" 6 (Array.length endpoints);
  Net.Topology.validate spec ~flows:endpoints

let test_dumbbell_builder_names () =
  let spec, endpoints =
    Net.Topology.dumbbell ~config:(Net.Dumbbell.paper_config ~flows:2) ()
  in
  Net.Topology.validate spec ~flows:endpoints;
  let names = List.map fst spec.Net.Topology.links in
  List.iter
    (fun legacy ->
      Alcotest.(check bool) (legacy ^ " present") true (List.mem legacy names))
    [
      "gateway"; "reverse_gateway"; "access_fwd0"; "access_rev1"; "exit_fwd1";
      "exit_rev0";
    ]

(* Conservation: whatever parking lot we build and whatever mixture of
   data and ACK packets we inject, after the engine drains every packet
   was either delivered at its flow's endpoint or recorded in the drop
   ledger. *)
let prop_conservation =
  QCheck2.Test.make ~count:60
    ~name:"Topology: injected packets are delivered or in the drop ledger"
    QCheck2.Gen.(
      quad (int_range 1 3) (int_range 1 3) (int_range 0 2)
        (list_size (int_range 1 40) (pair bool (int_range 0 1000))))
    (fun (hops, long_flows, cross_per_hop, injections) ->
      let config =
        {
          (Net.Dumbbell.paper_config
             ~flows:(long_flows + (hops * cross_per_hop))) with
          Net.Dumbbell.gateway = Net.Dumbbell.Droptail { capacity = 2 };
          reverse_capacity = 2;
        }
      in
      let spec, endpoints =
        Net.Topology.parking_lot ~hops ~long_flows ~cross_per_hop ~config ()
      in
      let engine = Sim.Engine.create () in
      let t =
        Net.Topology.create ~engine ~spec ~rng:(Sim.Rng.create 99L)
          ~flows:endpoints ()
      in
      let delivered = ref 0 in
      Net.Topology.set_data_dispatch t (fun _ -> incr delivered);
      Net.Topology.set_ack_dispatch t (fun _ -> incr delivered);
      let n = Array.length endpoints in
      List.iteri
        (fun uid (is_data, flow_pick) ->
          let flow = flow_pick mod n in
          if is_data then
            Net.Topology.inject_data t ~flow
              (Net.Packet.data ~uid ~flow ~seq:uid ~size_bytes:1000 ~born:0.0)
          else
            Net.Topology.inject_ack t ~flow
              (Net.Packet.ack ~uid ~flow ~ackno:uid ~size_bytes:40 ~born:0.0 ()))
        injections;
      Sim.Engine.run engine;
      !delivered + Net.Topology.total_drops t = List.length injections)

(* The same conservation through the fat tree, with queues too generous
   to drop: everything must be delivered. *)
let prop_fat_tree_delivers =
  QCheck2.Test.make ~count:40
    ~name:"Topology: fat tree delivers every packet when queues never fill"
    QCheck2.Gen.(
      triple (int_range 2 4) (int_range 1 3)
        (list_size (int_range 1 30) (int_range 0 1000)))
    (fun (pods, hosts_per_pod, picks) ->
      let config =
        {
          (Net.Dumbbell.paper_config ~flows:(pods * hosts_per_pod)) with
          Net.Dumbbell.gateway = Net.Dumbbell.Droptail { capacity = 10_000 };
          access_capacity = 10_000;
        }
      in
      let spec, endpoints =
        Net.Topology.fat_tree ~pods ~hosts_per_pod ~config ()
      in
      let engine = Sim.Engine.create () in
      let t =
        Net.Topology.create ~engine ~spec ~rng:(Sim.Rng.create 5L)
          ~flows:endpoints ()
      in
      let delivered = ref 0 in
      Net.Topology.set_data_dispatch t (fun _ -> incr delivered);
      let n = Array.length endpoints in
      List.iteri
        (fun uid pick ->
          Net.Topology.inject_data t ~flow:(pick mod n)
            (Net.Packet.data ~uid ~flow:(pick mod n) ~seq:uid ~size_bytes:1000
               ~born:0.0))
        picks;
      Sim.Engine.run engine;
      !delivered = List.length picks && Net.Topology.total_drops t = 0)

let suite =
  [
    ( "topology",
      [
        Alcotest.test_case "validation rejects malformed specs" `Quick
          test_validation_rejects;
        Alcotest.test_case "validation rejects non-finite links" `Quick
          test_validation_rejects_non_finite;
        Alcotest.test_case "validation rejects bad routes" `Quick
          test_validation_rejects_bad_routes;
        Alcotest.test_case "delivery and introspection" `Quick
          test_delivery_and_introspection;
        Alcotest.test_case "taps intercept" `Quick test_taps_intercept;
        Alcotest.test_case "drop ledger" `Quick test_drop_ledger;
        Alcotest.test_case "builders validate" `Quick test_builders_validate;
        Alcotest.test_case "dumbbell builder keeps legacy names" `Quick
          test_dumbbell_builder_names;
        Qcheck_seed.to_alcotest prop_conservation;
        Qcheck_seed.to_alcotest prop_fat_tree_delivers;
      ] );
  ]

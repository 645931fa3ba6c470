(* Two-way traffic tests: direction wiring and the ACK-compression
   shape (paper reference [22]). *)

let test_backward_flow_delivers () =
  let t =
    Experiments.Scenario.run
      (Experiments.Scenario.make
         ~topology:(Experiments.Scenario.dumbbell (Net.Dumbbell.paper_config ~flows:1))
         ~flows:
           [
             {
               (Experiments.Scenario.flow ~direction:Net.Dumbbell.Backward
                  Core.Variant.Rr) with
               Experiments.Scenario.source =
                 Experiments.Scenario.File_bytes 40_000;
             };
           ]
         ~params:{ Tcp.Params.default with rwnd = 20 }
         ~duration:60.0 ())
  in
  let result = t.Experiments.Scenario.results.(0) in
  Alcotest.(check bool) "backward transfer completes" true
    (result.Experiments.Scenario.completion <> None);
  Alcotest.(check int) "whole file received" 40
    (Tcp.Receiver.next_expected result.Experiments.Scenario.receiver)

let test_directions_validated () =
  let engine = Sim.Engine.create () in
  Alcotest.check_raises "length"
    (Invalid_argument "Dumbbell.create: directions length mismatch")
    (fun () ->
      ignore
        (Net.Dumbbell.create ~engine
           ~config:(Net.Dumbbell.paper_config ~flows:2)
           ~rng:(Sim.Rng.create 1L)
           ~directions:[| Net.Dumbbell.Forward |]
           ()))

let test_mixed_directions_share_trunks () =
  (* One forward and one backward flow: both must make real progress —
     each direction's data rides a different trunk. *)
  let t =
    Experiments.Scenario.run
      (Experiments.Scenario.make
         ~topology:
           (Experiments.Scenario.dumbbell
              {
                (Net.Dumbbell.paper_config ~flows:2) with
                Net.Dumbbell.reverse_capacity = 8;
              })
         ~flows:
           [
             Experiments.Scenario.flow Core.Variant.Rr;
             Experiments.Scenario.flow ~direction:Net.Dumbbell.Backward
               ~start:0.3 Core.Variant.Rr;
           ]
         ~params:{ Tcp.Params.default with rwnd = 20 }
         ~duration:30.0 ())
  in
  let goodput flow =
    Stats.Metrics.effective_throughput_bps
      t.Experiments.Scenario.results.(flow).Experiments.Scenario.trace
      ~mss:1000 ~t0:5.0 ~t1:30.0
  in
  Alcotest.(check bool)
    (Printf.sprintf "forward %.0f and backward %.0f both flow" (goodput 0)
       (goodput 1))
    true
    (goodput 0 > 100_000.0 && goodput 1 > 100_000.0)

let test_ack_compression_shape () =
  let outcome =
    Experiments.Two_way.run ~variants:[ Core.Variant.Reno ] ~duration:25.0 ()
  in
  match Experiments.Variant_table.cells outcome Core.Variant.Reno with
  | [ ((), reno) ] ->
    Alcotest.(check bool)
      (Printf.sprintf "two-way %.0f < one-way %.0f" reno.(1) reno.(0))
      true
      (reno.(1) < reno.(0));
    Alcotest.(check bool) "acks were lost" true (reno.(2) > 0.0)
  | _ -> Alcotest.fail "one row expected"

let suite =
  [
    ( "two_way",
      [
        Alcotest.test_case "backward flow delivers" `Quick
          test_backward_flow_delivers;
        Alcotest.test_case "directions validated" `Quick test_directions_validated;
        Alcotest.test_case "mixed directions" `Quick
          test_mixed_directions_share_trunks;
        Alcotest.test_case "ack compression" `Quick test_ack_compression_shape;
      ] );
  ]

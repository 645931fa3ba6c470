(* End-to-end integration tests over the full simulated network.

   The central invariant: whatever the variant and whatever the loss
   pattern, a finite transfer completes and the receiver ends with
   exactly the file, in order — TCP reliability on top of a lossy
   substrate. *)

let mss = 1000

let run_transfer ?(variant = Core.Variant.Newreno) ?(segments = 60)
    ?(forced_drops = []) ?(uniform_loss = 0.0) ?(ack_loss = 0.0)
    ?(delayed_ack = false) ?(duration = 120.0) ?(seed = 5L) () =
  let spec =
    Experiments.Scenario.make
      ~topology:(Experiments.Scenario.dumbbell (Net.Dumbbell.paper_config ~flows:1))
      ~flows:
        [
          {
            (Experiments.Scenario.flow variant) with
            Experiments.Scenario.source =
              Experiments.Scenario.File_bytes (segments * mss);
          };
        ]
      ~params:{ Tcp.Params.default with rwnd = 20 }
      ~seed ~duration ~forced_drops ~uniform_loss ~ack_loss ~delayed_ack ()
  in
  let t = Experiments.Scenario.run spec in
  (t, t.Experiments.Scenario.results.(0))

let check_complete ~segments (result : Experiments.Scenario.flow_result) =
  (match result.Experiments.Scenario.completion with
  | Some _ -> ()
  | None -> Alcotest.fail "transfer did not complete");
  Alcotest.(check int) "receiver has the whole file, in order" segments
    (Tcp.Receiver.next_expected result.Experiments.Scenario.receiver);
  Alcotest.(check int) "no stray buffered data" 0
    (Tcp.Receiver.buffered result.Experiments.Scenario.receiver)

let test_lossless_delivery () =
  List.iter
    (fun variant ->
      let _, result = run_transfer ~variant () in
      check_complete ~segments:60 result;
      let counters =
        result.Experiments.Scenario.agent.Tcp.Agent.base
          .Tcp.Sender_common.counters
      in
      Alcotest.(check int)
        (Core.Variant.name variant ^ " no retransmissions without loss")
        0 counters.Tcp.Counters.retransmits)
    Core.Variant.all

let test_burst_loss_delivery () =
  List.iter
    (fun variant ->
      List.iter
        (fun drops ->
          let rules =
            List.init drops (fun i ->
                { Net.Loss.flow = 0; seq = 33 + i; occurrence = 1 })
          in
          let _, result = run_transfer ~variant ~forced_drops:rules () in
          check_complete ~segments:60 result)
        [ 1; 3; 6 ])
    Core.Variant.all

let test_random_loss_delivery () =
  List.iter
    (fun variant ->
      let _, result =
        run_transfer ~variant ~uniform_loss:0.05 ~duration:200.0 ()
      in
      check_complete ~segments:60 result)
    Core.Variant.all

let test_retransmission_loss_recovered_by_timeout () =
  (* Drop segment 33 twice: the retransmission is lost too; only the
     RTO can repair it (paper §2: "RR also handles retransmission
     losses by using timeouts"). *)
  List.iter
    (fun variant ->
      let rules =
        [
          { Net.Loss.flow = 0; seq = 33; occurrence = 1 };
          { Net.Loss.flow = 0; seq = 33; occurrence = 2 };
        ]
      in
      let _, result = run_transfer ~variant ~forced_drops:rules () in
      check_complete ~segments:60 result)
    Core.Variant.all

let test_ack_loss_delivery () =
  (* Heavy reverse-path loss slows everyone down but never breaks
     reliability. *)
  List.iter
    (fun variant ->
      let _, result =
        run_transfer ~variant ~ack_loss:0.2 ~duration:300.0 ()
      in
      check_complete ~segments:60 result)
    Core.Variant.all

let test_delayed_ack_delivery () =
  List.iter
    (fun variant ->
      let _, result =
        run_transfer ~variant ~delayed_ack:true
          ~forced_drops:
            (List.init 3 (fun i ->
                 { Net.Loss.flow = 0; seq = 33 + i; occurrence = 1 }))
          ~duration:300.0 ()
      in
      check_complete ~segments:60 result)
    Core.Variant.all

let test_throughput_near_link_rate () =
  List.iter
    (fun variant ->
      let spec =
        Experiments.Scenario.make
          ~topology:(Experiments.Scenario.dumbbell (Net.Dumbbell.paper_config ~flows:1))
          ~flows:[ Experiments.Scenario.flow variant ]
          ~params:{ Tcp.Params.default with rwnd = 20 }
          ~seed:5L ()
      in
      let t = Experiments.Scenario.run spec in
      let bw =
        Stats.Metrics.effective_throughput_bps
          t.Experiments.Scenario.results.(0).Experiments.Scenario.trace ~mss
          ~t0:5.0 ~t1:30.0
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s runs the link near capacity (%.0f bps)"
           (Core.Variant.name variant) bw)
        true
        (bw > 0.9 *. Sim.Units.mbps 0.8))
    Core.Variant.all

let test_two_flows_share () =
  let spec =
    Experiments.Scenario.make
      ~topology:
        (Experiments.Scenario.dumbbell
           {
             (Net.Dumbbell.paper_config ~flows:2) with
             Net.Dumbbell.gateway = Net.Dumbbell.Droptail { capacity = 25 };
           })
      ~flows:
        [
          Experiments.Scenario.flow Core.Variant.Rr;
          { (Experiments.Scenario.flow Core.Variant.Rr) with
            Experiments.Scenario.start = 0.3 };
        ]
      ~params:{ Tcp.Params.default with rwnd = 20 }
      ~seed:5L ~duration:60.0 ()
  in
  let t = Experiments.Scenario.run spec in
  let bw flow =
    Stats.Metrics.effective_throughput_bps
      t.Experiments.Scenario.results.(flow).Experiments.Scenario.trace ~mss
      ~t0:10.0 ~t1:60.0
  in
  let total = bw 0 +. bw 1 in
  Alcotest.(check bool)
    (Printf.sprintf "both flows get real shares (%.0f / %.0f)" (bw 0) (bw 1))
    true
    (bw 0 > 0.15 *. total && bw 1 > 0.15 *. total);
  Alcotest.(check bool) "link well used" true (total > 0.8 *. Sim.Units.mbps 0.8)

let test_rr_beats_newreno_on_burst () =
  (* The paper's headline, as an invariant: with a 6-loss burst, RR's
     goodput over the recovery window beats New-Reno's. *)
  let goodput variant =
    (Experiments.Fig5.measure ~drops:6 ~window:3.0
       (Experiments.Scenario.run
          (Experiments.Fig5.scenario ~drops:6 ~seed:5L
             (Experiments.Scenario.flow variant))))
      .Experiments.Fig5.throughput_bps
  in
  let rr = goodput Core.Variant.Rr in
  let newreno = goodput Core.Variant.Newreno in
  Alcotest.(check bool)
    (Printf.sprintf "rr %.0f > newreno %.0f" rr newreno)
    true (rr > newreno)

let test_rr_no_timeout_on_burst () =
  (* 6 losses in one window must be absorbed by one recovery episode,
     without a retransmission timeout. *)
  let t =
    Experiments.Scenario.run
      (Experiments.Fig5.scenario ~drops:6 ~seed:5L
         (Experiments.Scenario.flow Core.Variant.Rr))
  in
  let counters =
    t.Experiments.Scenario.results.(0).Experiments.Scenario.agent
      .Tcp.Agent.base.Tcp.Sender_common.counters
  in
  Alcotest.(check int) "no timeouts" 0 counters.Tcp.Counters.timeouts;
  Alcotest.(check int) "one recovery" 1 counters.Tcp.Counters.fast_retransmits

let test_deterministic_replay () =
  (* Same seed => bit-identical behaviour, including through the RED
     gateway's randomness; different seed => different drop pattern. *)
  let run seed =
    let spec =
      Experiments.Scenario.make
        ~topology:
          (Experiments.Scenario.dumbbell
             {
               (Net.Dumbbell.paper_config ~flows:3) with
               Net.Dumbbell.gateway =
                 Net.Dumbbell.Red
                   { capacity = 25; params = Net.Red.paper_params };
             })
        ~flows:(List.init 3 (fun _ -> Experiments.Scenario.flow Core.Variant.Rr))
        ~params:{ Tcp.Params.default with rwnd = 20 }
        ~seed ~duration:10.0 ()
    in
    let t = Experiments.Scenario.run spec in
    ( t.Experiments.Scenario.drop_log,
      Stats.Series.to_list
        t.Experiments.Scenario.results.(0).Experiments.Scenario.trace
          .Stats.Flow_trace.una )
  in
  let drops_a, una_a = run 77L in
  let drops_b, una_b = run 77L in
  let drops_c, _ = run 78L in
  Alcotest.(check bool) "identical drop logs" true (drops_a = drops_b);
  (* The RED run drops data, not ACKs, and every data drop carries its
     real sequence number (no -1 sentinel in the typed log). *)
  Alcotest.(check bool) "data drops carry sequence numbers" true
    (drops_a <> []
    && List.for_all
         (fun { Experiments.Scenario.payload; _ } ->
           match payload with
           | Experiments.Scenario.Data { seq } -> seq >= 0
           | Experiments.Scenario.Ack -> false)
         drops_a);
  Alcotest.(check bool) "identical ack trajectories" true (una_a = una_b);
  Alcotest.(check bool) "seed changes the run" true (drops_a <> drops_c)

let test_limited_transmit_tiny_windows () =
  (* At a 3-segment window a single loss cannot produce 3 dup ACKs —
     unless limited transmit keeps the ACK clock alive. *)
  let run limited_transmit =
    let spec =
      Experiments.Scenario.make
        ~topology:(Experiments.Scenario.dumbbell (Net.Dumbbell.paper_config ~flows:1))
        ~flows:
          [
            {
              (Experiments.Scenario.flow Core.Variant.Rr) with
              Experiments.Scenario.source = Experiments.Scenario.File_bytes 60_000;
            };
          ]
        ~params:{ Tcp.Params.default with rwnd = 3; limited_transmit }
        ~seed:5L ~duration:200.0
        ~forced_drops:[ { Net.Loss.flow = 0; seq = 10; occurrence = 1 } ]
        ()
    in
    let t = Experiments.Scenario.run spec in
    let result = t.Experiments.Scenario.results.(0) in
    (match result.Experiments.Scenario.completion with
    | Some _ -> ()
    | None -> Alcotest.fail "transfer must complete");
    result.Experiments.Scenario.agent.Tcp.Agent.base.Tcp.Sender_common.counters
      .Tcp.Counters.timeouts
  in
  let without = run false in
  let with_lt = run true in
  Alcotest.(check bool)
    (Printf.sprintf "timeouts %d (plain) > %d (limited transmit)" without with_lt)
    true
    (without > with_lt)

(* Property: arbitrary drop patterns never break reliable delivery. *)
let drop_rules_gen =
  QCheck2.Gen.(
    list_size (int_range 0 8)
      (map2
         (fun seq occurrence -> { Net.Loss.flow = 0; seq; occurrence })
         (int_range 0 59) (int_range 1 2)))

let variant_gen = QCheck2.Gen.oneofl Core.Variant.all

let prop_reliable_delivery =
  QCheck2.Test.make ~name:"any variant delivers under any drop pattern"
    ~count:60
    QCheck2.Gen.(pair variant_gen drop_rules_gen)
    (fun (variant, rules) ->
      let _, result =
        run_transfer ~variant ~forced_drops:rules ~duration:300.0 ()
      in
      result.Experiments.Scenario.completion <> None
      && Tcp.Receiver.next_expected result.Experiments.Scenario.receiver = 60)

let suite =
  [
    ( "integration",
      [
        Alcotest.test_case "lossless delivery" `Quick test_lossless_delivery;
        Alcotest.test_case "burst loss delivery" `Quick test_burst_loss_delivery;
        Alcotest.test_case "random loss delivery" `Quick test_random_loss_delivery;
        Alcotest.test_case "retransmission loss" `Quick
          test_retransmission_loss_recovered_by_timeout;
        Alcotest.test_case "ack loss delivery" `Quick test_ack_loss_delivery;
        Alcotest.test_case "delayed ack delivery" `Quick test_delayed_ack_delivery;
        Alcotest.test_case "near link rate" `Quick test_throughput_near_link_rate;
        Alcotest.test_case "two flows share" `Quick test_two_flows_share;
        Alcotest.test_case "rr beats newreno on burst" `Quick
          test_rr_beats_newreno_on_burst;
        Alcotest.test_case "rr burst without timeout" `Quick
          test_rr_no_timeout_on_burst;
        Alcotest.test_case "deterministic replay" `Quick test_deterministic_replay;
        Alcotest.test_case "limited transmit at tiny windows" `Quick
          test_limited_transmit_tiny_windows;
        Qcheck_seed.to_alcotest ~long:false prop_reliable_delivery;
      ] );
  ]

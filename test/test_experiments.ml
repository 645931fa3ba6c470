(* Experiment-harness smoke and shape tests: each paper artifact runs
   and exhibits its qualitative claim. Kept small enough for CI. *)

let find_row outcome variant =
  List.assoc (Core.Variant.name variant) outcome.Experiments.Fig5.rows

let test_fig5_shape () =
  let outcome = Experiments.Fig5.run ~drops:6 Experiments.Fig5.paper_flows in
  let bw v = (find_row outcome v).Experiments.Fig5.throughput_bps in
  Alcotest.(check bool) "rr > newreno" true
    (bw Core.Variant.Rr > bw Core.Variant.Newreno);
  Alcotest.(check bool) "sack > newreno" true
    (bw Core.Variant.Sack > bw Core.Variant.Newreno);
  Alcotest.(check bool) "tahoe > newreno at 6 drops" true
    (bw Core.Variant.Tahoe > bw Core.Variant.Newreno);
  Alcotest.(check bool) "rr within 25% of sack" true
    (bw Core.Variant.Rr > 0.75 *. bw Core.Variant.Sack);
  let rr = find_row outcome Core.Variant.Rr in
  Alcotest.(check int) "rr: no timeouts" 0 rr.Experiments.Fig5.timeouts;
  Alcotest.(check int) "rr: exactly the 6 retransmissions" 6
    rr.Experiments.Fig5.retransmits

let test_fig5_3drop_recovers () =
  let outcome = Experiments.Fig5.run ~drops:3 Experiments.Fig5.paper_flows in
  List.iter
    (fun (label, row) ->
      Alcotest.(check bool) (label ^ " recovered") true
        (row.Experiments.Fig5.recovery_seconds <> None))
    outcome.Experiments.Fig5.rows

let test_fig5_report_renders () =
  let report =
    Experiments.Fig5.report
      (Experiments.Fig5.run ~drops:3 Experiments.Fig5.paper_flows)
  in
  Alcotest.(check bool) "mentions figure" true
    (String.length report > 100 && String.sub report 0 8 = "Figure 5")

let test_fig6_shape () =
  (* The paper's 6-second horizon; shorter runs are dominated by the
     staggered start-up transient. *)
  let outcome =
    Experiments.Fig6.run ~variants:Core.Variant.[ Newreno; Rr ] ~duration:6.0 ()
  in
  match outcome.Experiments.Fig6.results with
  | [ newreno; rr ] ->
    Alcotest.(check bool)
      (Printf.sprintf "rr flow1 %.0f >= newreno %.0f"
         rr.Experiments.Fig6.throughput_bps
         newreno.Experiments.Fig6.throughput_bps)
      true
      (rr.Experiments.Fig6.throughput_bps
      >= newreno.Experiments.Fig6.throughput_bps);
    Alcotest.(check bool) "sends recorded" true
      (List.length rr.Experiments.Fig6.sends > 50)
  | _ -> Alcotest.fail "two results expected"

let test_fig7_point () =
  let outcome =
    Experiments.Fig7.run ~loss_rates:[ 0.02 ] ~seeds:[ 3L ] ~duration:40.0 ()
  in
  match outcome.Experiments.Fig7.points with
  | [ point ] ->
    Alcotest.(check (float 1e-6)) "model" (sqrt 1.5 /. sqrt 0.02)
      point.Experiments.Fig7.model_window;
    List.iter
      (fun (variant, window, _) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s window %.1f sane" (Core.Variant.name variant)
             window)
          true
          (window > 2.0 && window < 21.0))
      point.Experiments.Fig7.measured
  | _ -> Alcotest.fail "one point expected"

let test_fig7_droop_at_high_loss () =
  let outcome =
    Experiments.Fig7.run ~loss_rates:[ 0.005; 0.1 ]
      ~variants:[ Core.Variant.Rr ] ~seeds:[ 3L ] ~duration:60.0 ()
  in
  match outcome.Experiments.Fig7.points with
  | [ low; high ] ->
    let window p =
      match p.Experiments.Fig7.measured with
      | [ (_, w, _) ] -> w
      | _ -> Alcotest.fail "one variant"
    in
    let ratio_low = window low /. low.Experiments.Fig7.model_window in
    let ratio_high = window high /. high.Experiments.Fig7.model_window in
    Alcotest.(check bool)
      (Printf.sprintf "fit degrades: %.2f -> %.2f" ratio_low ratio_high)
      true (ratio_high < ratio_low)
  | _ -> Alcotest.fail "two points expected"

let test_scenario_rtt_estimate () =
  let rtt =
    Experiments.Scenario.rtt_estimate
      (Net.Dumbbell.paper_config ~flows:1)
      ~mss:1000 ~ack_size:40
  in
  (* The §4 nominal RTT: about 200 ms. *)
  Alcotest.(check bool)
    (Printf.sprintf "rtt %.4f near 0.2 s" rtt)
    true
    (rtt > 0.19 && rtt < 0.22)

let test_scenario_flow_count_checked () =
  let spec =
    Experiments.Scenario.make
      ~topology:(Experiments.Scenario.dumbbell (Net.Dumbbell.paper_config ~flows:2))
      ~flows:[ Experiments.Scenario.flow Core.Variant.Rr ]
      ~duration:1.0 ()
  in
  Alcotest.check_raises "mismatch"
    (Invalid_argument
       "Scenario.run: flow + cross-traffic specs do not match topology width")
    (fun () -> ignore (Experiments.Scenario.run spec))

let test_ack_loss_shape () =
  let outcome =
    Experiments.Ack_loss.run ~rates:[ 0.0; 0.2 ] ~seeds:[ 2L; 19L ] ()
  in
  match outcome.Experiments.Variant_table.rows with
  | [ (_, clean); (_, lossy) ] ->
    let goodput runs variant =
      let runs =
        List.assoc variant
          (List.combine outcome.Experiments.Variant_table.variants runs)
      in
      (Experiments.Variant_table.means runs).(0)
    in
    List.iter
      (fun v ->
        Alcotest.(check bool)
          (Core.Variant.name v ^ " degrades under ack loss")
          true
          (goodput lossy v < goodput clean v))
      Core.Variant.[ Newreno; Rr ]
  | _ -> Alcotest.fail "two points expected"

let test_sync_shape () =
  let outcome =
    Experiments.Sync.run ~variants:[ Core.Variant.Reno ] ~duration:20.0 ()
  in
  match
    Experiments.Variant_table.cells outcome.Experiments.Sync.table
      Core.Variant.Reno
  with
  | [ ((gateway, _), droptail); (_, red) ] ->
    Alcotest.(check string) "order" "drop-tail" gateway;
    Alcotest.(check bool)
      (Printf.sprintf "droptail sync %.2f > red %.2f" droptail.(0) red.(0))
      true
      (droptail.(0) > red.(0));
    Alcotest.(check bool) "red spreads losses over more events" true
      (red.(1) > droptail.(1))
  | _ -> Alcotest.fail "two rows expected"

let test_smooth_shape () =
  let outcome = Experiments.Smooth.run ~variants:[ Core.Variant.Rr ] () in
  match Experiments.Variant_table.cells outcome Core.Variant.Rr with
  | [ (plain_flag, plain); (smooth_flag, smooth) ] ->
    Alcotest.(check bool) "flag wiring" true ((not plain_flag) && smooth_flag);
    Alcotest.(check bool)
      (Printf.sprintf "smooth start-up drops %.0f <= plain %.0f" smooth.(1)
         plain.(1))
      true
      (smooth.(1) <= plain.(1))
  | _ -> Alcotest.fail "two rows expected"

let test_fig7_delack_model_constant () =
  let outcome =
    Experiments.Fig7.run ~loss_rates:[ 0.02 ] ~variants:[ Core.Variant.Rr ]
      ~seeds:[ 3L ] ~duration:20.0 ~delayed_ack:true ()
  in
  Alcotest.(check (float 1e-9)) "delack constant" (sqrt 0.75)
    outcome.Experiments.Fig7.c_model

let run_tiny_scenario () =
  Experiments.Scenario.run
    (Experiments.Scenario.make
       ~topology:(Experiments.Scenario.dumbbell (Net.Dumbbell.paper_config ~flows:1))
       ~flows:[ Experiments.Scenario.flow Core.Variant.Rr ]
       ~params:{ Tcp.Params.default with rwnd = 20 }
       ~duration:3.0 ~monitor_queue:0.1
       ~forced_drops:[ { Net.Loss.flow = 0; seq = 5; occurrence = 1 } ]
       ())

let test_tracefile_format () =
  let t = run_tiny_scenario () in
  let trace = Experiments.Scenario.tracefile t in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' trace)
  in
  Alcotest.(check bool) "has events" true (List.length lines > 20);
  (* Every line parses into the 11 ns-2 fields, and times ascend. *)
  let parse line =
    match String.split_on_char ' ' line with
    | [ event; time; _; _; kind; size; _; flow; _; _; seq ] ->
      Alcotest.(check bool) "event tag" true
        (List.mem event [ "+"; "r"; "d" ]);
      Alcotest.(check bool) "kind" true (kind = "tcp" || kind = "ack");
      ignore (int_of_string size);
      ignore (int_of_string flow);
      ignore (int_of_string seq);
      float_of_string time
    | _ -> Alcotest.fail ("unparsable line: " ^ line)
  in
  let times = List.map parse lines in
  let rec ascending = function
    | [] | [ _ ] -> true
    | a :: (b :: _ as rest) -> a <= b && ascending rest
  in
  Alcotest.(check bool) "time ordered" true (ascending times);
  Alcotest.(check bool) "the forced drop appears" true
    (List.exists (fun l -> String.length l > 0 && l.[0] = 'd') lines)

let test_queue_occupancy_collected () =
  let t = run_tiny_scenario () in
  match t.Experiments.Scenario.queue_occupancy with
  | Some series ->
    (* ~One sample per 0.1 s over 3 s (floating-point accumulation may
       shave the final tick). *)
    let n = Stats.Series.length series in
    Alcotest.(check bool)
      (Printf.sprintf "%d samples" n)
      true
      (n >= 29 && n <= 31)
  | None -> Alcotest.fail "monitoring requested"

let test_sync_queue_cov_positive () =
  let outcome =
    Experiments.Sync.run ~variants:[ Core.Variant.Reno ] ~duration:15.0 ()
  in
  List.iter
    (fun ((gateway, _), means) ->
      Alcotest.(check bool) (gateway ^ " queue varies") true (means.(4) > 0.0))
    (Experiments.Variant_table.cells outcome.Experiments.Sync.table
       Core.Variant.Reno)

let test_fig5_background_runs () =
  let outcome =
    Experiments.Fig5.run_background
      ~variants:Core.Variant.[ Newreno; Rr ] ()
  in
  List.iter
    (fun row ->
      Alcotest.(check bool)
        (Core.Variant.name row.Experiments.Fig5.b_variant ^ " finished")
        true
        (row.Experiments.Fig5.transfer_seconds <> None))
    outcome.Experiments.Fig5.b_rows

let test_table5_limited_transmit_restores_case4 () =
  (* The RFC 3042 extension restores fast retransmit at tiny windows;
     with it, the lone RR flow of case 4 beats the homogeneous-Reno
     baseline of case 1, the paper's §5 ordering. *)
  let outcome = Experiments.Table5.run ~limited_transmit:true () in
  let delay label =
    let case =
      List.find (fun c -> c.Experiments.Table5.label = label)
        outcome.Experiments.Table5.cases
    in
    match case.Experiments.Table5.transfer_delay with
    | Some d -> d
    | None -> Alcotest.fail (label ^ " unfinished")
  in
  Alcotest.(check bool)
    (Printf.sprintf "case4 %.1f < case1 %.1f" (delay "case 4") (delay "case 1"))
    true
    (delay "case 4" < delay "case 1")

let test_vegas_claim_shape () =
  let outcome = Experiments.Vegas_claim.run () in
  let goodput label =
    (List.assoc label outcome.Experiments.Fig5.rows)
      .Experiments.Fig5.throughput_bps
  in
  (* [8]'s claim: the recovery mechanism carries the gain. *)
  Alcotest.(check bool) "full vegas > reno" true
    (goodput "vegas (full)" > goodput "reno");
  Alcotest.(check bool) "recovery-only captures most of the gain" true
    (goodput "vegas recovery only" > 0.8 *. goodput "vegas (full)");
  Alcotest.(check bool) "avoidance-only does not beat reno's recovery" true
    (goodput "vegas avoidance only" < goodput "vegas (full)")

let test_rtt_fairness_shape () =
  let outcome =
    Experiments.Rtt_fairness.run ~variants:[ Core.Variant.Rr ] ~duration:60.0 ()
  in
  match
    Experiments.Variant_table.cells outcome.Experiments.Rtt_fairness.table
      Core.Variant.Rr
  with
  | [ ((), rr) ] ->
    (* §5: RR converges to the fair share when RTTs are equal. *)
    Alcotest.(check bool)
      (Printf.sprintf "equal-RTT Jain %.3f ~ 1" rr.(0))
      true
      (rr.(0) > 0.95);
    Alcotest.(check bool) "hetero RTTs are less fair" true (rr.(1) <= rr.(0))
  | _ -> Alcotest.fail "one row expected"

let test_sensitivity_ordering () =
  let outcome =
    Experiments.Sensitivity.run ~buffers:[ 4; 25 ]
      ~delays:[ Sim.Units.ms 96.0 ] ()
  in
  Alcotest.(check bool) "RR > New-Reno in every cell" true
    (Experiments.Sensitivity.ordering_holds outcome);
  Alcotest.(check int) "grid size" 2
    (List.length outcome.Experiments.Sensitivity.cells)

let test_ablation_runs () =
  let outcome = Experiments.Ablation.run ~drops:3 () in
  Alcotest.(check int) "four designs" 4 (List.length outcome.Experiments.Fig5.rows);
  List.iter
    (fun (label, row) ->
      Alcotest.(check bool)
        (label ^ " produced throughput")
        true
        (row.Experiments.Fig5.throughput_bps > 0.0))
    outcome.Experiments.Fig5.rows

let test_modelcheck_relentless_tolerance () =
  (* Acceptance gate: Relentless sits within 15% of the arxiv
     1102.3270 prediction on the clean dumbbell at the rwnd-capped
     operating point (p = 0.002). Two seeds and 30 s keep this quick;
     the [modelcheck] artifact carries the full grid. *)
  let outcome =
    Experiments.Modelcheck.run
      ~variants:[ Core.Variant.Relentless; Core.Variant.Rrr ]
      ~loss_rates:[ 0.002 ] ~seeds:[ 3L; 17L ] ~duration:30.0 ()
  in
  List.iter
    (fun variant ->
      match
        Experiments.Modelcheck.deviation outcome ~variant ~loss_rate:0.002
      with
      | None -> Alcotest.fail "missing grid cell"
      | Some dev ->
        Alcotest.(check bool)
          (Printf.sprintf "%s |%+.1f%%| within 15%%"
             (Core.Variant.name variant) (100.0 *. dev))
          true
          (Float.abs dev <= 0.15))
    [ Core.Variant.Relentless; Core.Variant.Rrr ]

(* A NaN level would drive RRR's (1 - l) * W backoff to NaN, and a NaN
   deviation passes any [> tol] test; both must be refused. *)
let test_nan_level_and_deviation () =
  Alcotest.check_raises "Params.validate refuses a NaN rrr_level"
    (Invalid_argument "Params: rrr_level out of (0, 1)") (fun () ->
      Tcp.Params.validate { Tcp.Params.default with rrr_level = Float.nan });
  let row deviation =
    {
      Experiments.Modelcheck.variant = Core.Variant.Rrr;
      model = "rrr(0.5)";
      predicted_window = 10.0;
      measured_window = 10.0;
      deviation;
      timeouts = 0;
    }
  in
  let outcome =
    {
      Experiments.Modelcheck.rtt = 0.2;
      rwnd = 20;
      rrr_level = 0.5;
      points =
        [ { loss_rate = 0.01; rows = [ row 0.05; row Float.nan; row (-0.3) ] } ];
    }
  in
  Alcotest.(check (list string))
    "a NaN deviation is beyond any tolerance"
    [ "rrr at p=0.01: +nan%"; "rrr at p=0.01: -30.0%" ]
    (Experiments.Modelcheck.beyond outcome ~tolerance:0.2)

(* Windows are measured from the warm-up on: a horizon inside it
   would measure nothing and read as a -100% deviation. *)
let test_modelcheck_refuses_warmup_horizon () =
  List.iter
    (fun (duration, reason) ->
      Alcotest.check_raises
        (Printf.sprintf "duration %g is refused" duration)
        (Invalid_argument (Printf.sprintf "--duration %g: %s" duration reason))
        (fun () ->
          ignore
            (Experiments.Modelcheck.run ~variants:[ Core.Variant.Rr ]
               ~loss_rates:[ 0.01 ] ~seeds:[ 3L ] ~duration ())))
    [
      (3.0, "must exceed the 5 s warm-up");
      (Experiments.Fig7.warmup, "must exceed the 5 s warm-up");
      (Float.nan, "must be finite and >= 0");
    ]

(* The asym clause needs the dumbbell's reverse trunk: one predicate
   decides, for the CLI's up-front check and for [Scenario.run]. *)
let test_faults_fit () =
  let asym =
    { Faults.Spec.none with Faults.Spec.asym = Some 20.0 }
  in
  let dumbbell =
    Experiments.Scenario.dumbbell (Net.Dumbbell.paper_config ~flows:1)
  in
  let spec, endpoints =
    Net.Topology.parking_lot ~hops:2 ~long_flows:1 ~cross_per_hop:0
      ~config:(Net.Dumbbell.paper_config ~flows:1) ()
  in
  let graph =
    Experiments.Scenario.graph ~loss_link:"bottleneck0"
      ~flap_links:[ "bottleneck0" ] ~spec ~endpoints ()
  in
  Alcotest.(check bool) "asym fits the dumbbell" true
    (Experiments.Scenario.faults_fit dumbbell asym);
  Alcotest.(check bool) "asym does not fit a graph" false
    (Experiments.Scenario.faults_fit graph asym);
  Alcotest.(check bool) "other faults fit a graph" true
    (Experiments.Scenario.faults_fit graph
       { Faults.Spec.none with Faults.Spec.jitter = Some 0.01 });
  Alcotest.check_raises "Scenario.run refuses asym on a graph"
    (Invalid_argument "Scenario.run: asym requires a dumbbell topology")
    (fun () ->
      ignore
        (Experiments.Scenario.run
           (Experiments.Scenario.make ~topology:graph
              ~flows:[ Experiments.Scenario.flow Core.Variant.Rr ]
              ~duration:1.0 ~faults:asym ())))

let suite =
  [
    ( "experiments",
      [
        Alcotest.test_case "fig5 shape" `Quick test_fig5_shape;
        Alcotest.test_case "fig5 3-drop recovers" `Quick test_fig5_3drop_recovers;
        Alcotest.test_case "fig5 report" `Quick test_fig5_report_renders;
        Alcotest.test_case "fig6 shape" `Quick test_fig6_shape;
        Alcotest.test_case "fig7 point" `Quick test_fig7_point;
        Alcotest.test_case "fig7 droop" `Quick test_fig7_droop_at_high_loss;
        Alcotest.test_case "scenario rtt" `Quick test_scenario_rtt_estimate;
        Alcotest.test_case "scenario validation" `Quick
          test_scenario_flow_count_checked;
        Alcotest.test_case "ablation" `Quick test_ablation_runs;
        Alcotest.test_case "ack-loss shape" `Quick test_ack_loss_shape;
        Alcotest.test_case "sync shape" `Quick test_sync_shape;
        Alcotest.test_case "smooth shape" `Quick test_smooth_shape;
        Alcotest.test_case "fig7 delack constant" `Quick
          test_fig7_delack_model_constant;
        Alcotest.test_case "tracefile format" `Quick test_tracefile_format;
        Alcotest.test_case "queue occupancy" `Quick test_queue_occupancy_collected;
        Alcotest.test_case "sync queue cov" `Quick test_sync_queue_cov_positive;
        Alcotest.test_case "fig5 background mode" `Quick test_fig5_background_runs;
        Alcotest.test_case "table5 limited transmit" `Quick
          test_table5_limited_transmit_restores_case4;
        Alcotest.test_case "vegas decomposition" `Quick test_vegas_claim_shape;
        Alcotest.test_case "rtt fairness" `Quick test_rtt_fairness_shape;
        Alcotest.test_case "sensitivity ordering" `Quick test_sensitivity_ordering;
        Alcotest.test_case "modelcheck tolerance" `Quick
          test_modelcheck_relentless_tolerance;
        Alcotest.test_case "NaN level and deviation" `Quick
          test_nan_level_and_deviation;
        Alcotest.test_case "modelcheck refuses a warm-up horizon" `Quick
          test_modelcheck_refuses_warmup_horizon;
        Alcotest.test_case "asym needs the dumbbell" `Quick test_faults_fit;
      ] );
  ]

(* Allocation budgets: minor-heap words per simulated segment over fixed
   runs. The counts are deterministic (same code, same words), so a
   budget breaks on a change that puts an allocation back on the packet
   path, not on a noisy host.

   The budgets hold for OCaml 5.1.1 in dune's dev profile, which
   compiles every module -opaque: there, a float passed to or returned
   from another module's function is boxed, so the packet path keeps
   floats inside modules. A release build inlines across modules and
   reads lower. A change that moves one of these figures re-records it
   here and says so in CHANGES.md.

   Segments are first sends plus retransmissions; for the flock,
   delivered plus retransmitted segments (its accessors have no
   first-send counter). *)

open Experiments

let words_per_segment run =
  let before = Gc.minor_words () in
  let segments = run () in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "the run sends segments" true (segments > 0);
  words /. float_of_int segments

let check_budget ~budget run () =
  let measured = words_per_segment run in
  if measured > budget then
    Alcotest.failf "%.2f minor words per segment, over the budget of %g"
      measured budget

let scenario_segments (t : Scenario.t) =
  Array.fold_left
    (fun acc (r : Scenario.flow_result) ->
      let c = r.Scenario.agent.Tcp.Agent.base.Tcp.Sender_common.counters in
      acc + c.Tcp.Counters.segments_sent + c.Tcp.Counters.retransmits)
    0 t.Scenario.results

(* The paper dumbbell with a 25-packet drop-tail gateway and rwnd 20. *)
let dumbbell ~flows =
  Scenario.dumbbell
    {
      (Net.Dumbbell.paper_config ~flows) with
      Net.Dumbbell.gateway = Net.Dumbbell.Droptail { capacity = 25 };
    }

let params = { Tcp.Params.default with rwnd = 20 }

(* A Table 5 case: 19 Reno flows, then one RR 100 KB file at 4.9 s. *)
let table5 ~audit_sample () =
  let flows =
    List.init 20 (fun flow ->
        if flow = 19 then
          {
            (Scenario.flow Core.Variant.Rr) with
            Scenario.start = 4.9;
            source = Scenario.File_bytes 100_000;
          }
        else
          {
            (Scenario.flow Core.Variant.Reno) with
            Scenario.start = 0.5 *. float_of_int flow;
          })
  in
  scenario_segments
    (Scenario.run
       (Scenario.make ~topology:(dumbbell ~flows:20) ~flows ~params ~seed:11L
          ~duration:160.0 ~audit_sample ()))

(* A Figure 7 point: one RR flow at 1% uniform loss. *)
let fig7 ~audit_sample () =
  scenario_segments
    (Scenario.run
       (Scenario.make ~topology:(dumbbell ~flows:1)
          ~flows:[ Scenario.flow Core.Variant.Rr ]
          ~params ~seed:5L ~duration:100.0 ~uniform_loss:0.01 ~audit_sample ()))

let many_flow () =
  let o = Many_flow.run ~flows:2000 ~duration:5.0 () in
  o.Many_flow.delivered_segments + o.Many_flow.retransmits

let suite =
  [
    ( "alloc",
      [
        Alcotest.test_case "many-flow 2k flows 5 s: <= 30 words/segment" `Quick
          (check_budget ~budget:30.0 many_flow);
        Alcotest.test_case "table 5 case, no auditor: <= 60 words/segment"
          `Quick
          (check_budget ~budget:60.0 (table5 ~audit_sample:0));
        Alcotest.test_case "figure 7 point, no auditor: <= 60 words/segment"
          `Quick
          (check_budget ~budget:60.0 (fig7 ~audit_sample:0));
        Alcotest.test_case "table 5 case, audit 1-in-8: <= 44 words/segment"
          `Quick
          (check_budget ~budget:44.0 (table5 ~audit_sample:8));
        Alcotest.test_case "figure 7 point, full audit: <= 70 words/segment"
          `Quick
          (check_budget ~budget:70.0 (fig7 ~audit_sample:1));
      ] );
  ]

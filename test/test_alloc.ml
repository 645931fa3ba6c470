(* Engine cost pins: deterministic counts over fixed runs. Two kinds:

   - budgets on minor-heap words per unit of work (a simulated segment,
     an engine event, a packet through a link, an RTO computation);
   - the exact number of events a run schedules.

   Same code, same counts, so a pin breaks on a change that puts an
   allocation back on a hot path or adds work to the event loop, not on
   a noisy host. Wall-clock is perfbench's job.

   The counts hold for OCaml 5.1.1 in dune's dev profile, which
   compiles every module -opaque: there, a float passed to or returned
   from another module's function is boxed, so the packet path keeps
   floats inside modules. A release build inlines across modules and
   reads lower. A change that moves one of these figures re-records it
   here and says so in CHANGES.md.

   Segments are first sends plus retransmissions; for the flock,
   delivered plus retransmitted segments (its accessors have no
   first-send counter). *)

open Experiments

(* [check_budget ~budget prepare] runs [prepare ()] unmeasured (set-up
   and warm-up), then measures the work it returns, which reports how
   many units it did. *)
let check_budget ~budget prepare () =
  let work = prepare () in
  let before = Gc.minor_words () in
  let units = work () in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "the run does work" true (units > 0);
  let measured = words /. float_of_int units in
  if measured > budget then
    Alcotest.failf "%.4f minor words per unit, over the budget of %g" measured
      budget

let scenario_segments (t : Scenario.t) =
  Array.fold_left
    (fun acc (r : Scenario.flow_result) ->
      let c = r.Scenario.agent.Tcp.Agent.base.Tcp.Sender_common.counters in
      acc + c.Tcp.Counters.segments_sent + c.Tcp.Counters.retransmits)
    0 t.Scenario.results

let segments spec () = scenario_segments (Scenario.run (spec ()))

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
  Scenario.make ~topology:(dumbbell ~flows:20) ~flows ~params ~seed:11L
    ~duration:160.0 ~audit_sample ()

(* A Figure 7 point: one RR flow at 1% uniform loss. *)
let fig7 ?trace_out ?trace_format ~audit_sample () =
  Scenario.make ~topology:(dumbbell ~flows:1)
    ~flows:[ Scenario.flow Core.Variant.Rr ]
    ~params ~seed:5L ~duration:100.0 ~uniform_loss:0.01 ?trace_out
    ?trace_format ~audit_sample ()

let many_flow () =
  let o = Many_flow.run ~flows:2000 ~duration:5.0 () in
  o.Many_flow.delivered_segments + o.Many_flow.retransmits

(* [check_scheduled ~expected runs] checks the events each run's engine
   scheduled. *)
let check_scheduled ~expected runs () =
  List.iter
    (fun (what, run) ->
      Alcotest.(check int) ("events scheduled, " ^ what) expected
        (Sim.Engine.scheduled (run ()).Scenario.engine))
    runs

(* Observation is read-only: neither the auditor nor a trace sink may
   schedule an event. *)
let traced_fig7 ~trace_format ~audit_sample () =
  Out_channel.with_open_bin Filename.null (fun trace_out ->
      Scenario.run (fig7 ~trace_out ~trace_format ~audit_sample ()))

let nop () = ()

(* 100k fire-and-forget events over 97 distinct delays. A first batch,
   unmeasured, grows the engine's arena and calendar; each call then
   boxes its delay, the 2 words a caller in another module pays; the
   calendar's rebuilds add next to nothing (2.0093 in all). *)
let warmed_engine () =
  let engine = Sim.Engine.create () in
  let batch () =
    for i = 1 to 100_000 do
      Sim.Engine.schedule_unit engine ~delay:(float_of_int (i mod 97)) nop
    done;
    Sim.Engine.run engine
  in
  batch ();
  fun () ->
    batch ();
    100_000

(* A link kept saturated by a 20k-packet backlog: a serialization and a
   propagation event per packet. A first backlog, unmeasured, grows the
   link's delivery records and the engine; the measured one is built
   before the count starts, so the packet records are not counted. *)
let saturated_link () =
  let engine = Sim.Engine.create () in
  let delivered = ref 0 in
  let link =
    Net.Link.create ~engine ~bandwidth_bps:(Sim.Units.mbps 100.0) ~delay:0.001
      ~queue:(Net.Droptail.create ~capacity:20_000 ())
      ~dst:(fun _ -> incr delivered)
      ()
  in
  let backlog () =
    Array.init 20_000 (fun i ->
        Net.Packet.data ~uid:i ~flow:0 ~seq:i ~size_bytes:1000 ~born:0.0)
  in
  let drain packets =
    Array.iter (Net.Link.send link) packets;
    Sim.Engine.run engine
  in
  drain (backlog ());
  let packets = backlog () in
  fun () ->
    drain packets;
    assert (!delivered = 40_000);
    Array.length packets

(* One RTO-timer restart per ACK reads [Rto.value]: only its return box
   may allocate. *)
let rto_value () =
  let rto =
    Tcp.Rto.create ~min_rto:0.2 ~max_rto:64.0 ~initial_rto:3.0 ()
  in
  Tcp.Rto.sample rto 0.25;
  Tcp.Rto.backoff rto;
  fun () ->
    for _ = 1 to 1000 do
      ignore (Sys.opaque_identity (Tcp.Rto.value rto))
    done;
    1000

let suite =
  [
    ( "alloc",
      [
        Alcotest.test_case "many-flow 2k flows 5 s: <= 30 words/segment" `Quick
          (check_budget ~budget:30.0 (fun () -> many_flow));
        Alcotest.test_case "table 5 case, no auditor: <= 60 words/segment"
          `Quick
          (check_budget ~budget:60.0 (fun () ->
               segments (table5 ~audit_sample:0)));
        Alcotest.test_case "figure 7 point, no auditor: <= 60 words/segment"
          `Quick
          (check_budget ~budget:60.0 (fun () -> segments (fig7 ~audit_sample:0)));
        Alcotest.test_case "table 5 case, audit 1-in-8: <= 44 words/segment"
          `Quick
          (check_budget ~budget:44.0 (fun () ->
               segments (table5 ~audit_sample:8)));
        Alcotest.test_case "figure 7 point, full audit: <= 70 words/segment"
          `Quick
          (check_budget ~budget:70.0 (fun () -> segments (fig7 ~audit_sample:1)));
        Alcotest.test_case "warmed engine: <= 2.05 words/event" `Quick
          (check_budget ~budget:2.05 warmed_engine);
        Alcotest.test_case "saturated link: <= 0.01 words/packet" `Quick
          (check_budget ~budget:0.01 saturated_link);
        Alcotest.test_case "Rto.value: <= 2 words/call" `Quick
          (check_budget ~budget:2.0 rto_value);
        Alcotest.test_case "table 5 case: 198415 events scheduled" `Quick
          (check_scheduled ~expected:198_415
             [
               ("unobserved", fun () -> Scenario.run (table5 ~audit_sample:0 ()));
             ]);
        Alcotest.test_case "figure 7 point: 67999 events scheduled" `Quick
          (check_scheduled ~expected:67_999
             [
               ("unobserved", fun () -> Scenario.run (fig7 ~audit_sample:0 ()));
               ( "full audit, binary trace",
                 traced_fig7 ~trace_format:`Binary ~audit_sample:1 );
               ( "audit 1-in-8, JSONL trace",
                 traced_fig7 ~trace_format:`Jsonl ~audit_sample:8 );
             ]);
        (* Vegas keeps a send-time table; forgetting the acked entries
           must not copy it on every new ACK. *)
        Alcotest.test_case
          "figure 7 point as Vegas, no auditor: <= 80 words/segment" `Quick
          (check_budget ~budget:80.0 (fun () ->
               segments (fun () ->
                   {
                     (fig7 ~audit_sample:0 ()) with
                     Scenario.flows = [ Scenario.flow Core.Variant.Vegas ];
                   })));
      ] );
  ]

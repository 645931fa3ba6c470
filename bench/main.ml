(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (the printed reports are the reproduction artifacts), then
   times each experiment with Bechamel — one Test.make per paper
   artifact plus the RR design ablations and micro-benchmarks of the
   simulator core.

     dune exec bench/main.exe               # full reproduction + timings
     dune exec bench/main.exe -- --fast     # skip the Bechamel pass
     dune exec bench/main.exe -- --json     # machine-readable timings
     dune exec bench/main.exe -- --check    # diff timings vs baseline.json
     dune exec bench/main.exe -- --only sched,link --check
                                            # restrict to benchmark-name
                                            # prefixes (perf-smoke uses this) *)

open Bechamel
open Toolkit

let banner title =
  Printf.printf "\n%s\n%s\n%s\n\n" (String.make 72 '=') title (String.make 72 '=')

(* -- the reproduction itself: every registered experiment's report -- *)

let reproduce () =
  List.iter
    (fun e ->
      banner
        (Printf.sprintf "%s -- %s" e.Experiments.Registry.name
           e.Experiments.Registry.synopsis);
      print_string (e.Experiments.Registry.run ~seed:7L))
    Experiments.Registry.all;
  banner "campaign -- cross-seed uniform-loss sweep (lib/campaign)";
  let outcome =
    Campaign.Sweep.run ~jobs:1
      (Campaign.Sweep.grid
         ~variants:Core.Variant.[ Newreno; Sack; Rr ]
         ~uniform_losses:[ 0.01; 0.05 ] ~seed_count:3 ~duration:10.0 ())
  in
  print_string (Campaign.Sweep.report outcome)

(* -- scheduler and link micro-benchmark bodies -- *)

let nop () = ()

(* 50k fire-and-forget events at scattered pseudo-random delays: the
   push/pop pattern of the simulation hot path. *)
let sched_push_pop () =
  let engine = Sim.Engine.create () in
  for round = 0 to 4 do
    for i = 1 to 10_000 do
      Sim.Engine.schedule_unit engine
        ~delay:(float_of_int (((i * 7919) + round) mod 1009) *. 0.001)
        nop
    done;
    Sim.Engine.run engine
  done

(* Same population through the handle path, cancelling every other
   event before the run drains the rest past the lazy deletions. *)
let sched_cancel () =
  let engine = Sim.Engine.create () in
  let handles = Array.make 10_000 None in
  for round = 0 to 4 do
    for i = 0 to 9_999 do
      handles.(i) <-
        Some
          (Sim.Engine.schedule_after engine
             ~delay:(float_of_int (((i * 7919) + round) mod 1009) *. 0.001)
             nop)
    done;
    for i = 0 to 9_999 do
      if i land 1 = 0 then
        match handles.(i) with
        | Some handle -> Sim.Engine.cancel engine handle
        | None -> ()
    done;
    Sim.Engine.run engine
  done

(* A link kept saturated by a 20k-packet backlog: every packet costs a
   serialization event plus a propagation event, all on the fused
   delivery-record path. *)
let link_saturated () =
  let engine = Sim.Engine.create () in
  let queue = Net.Droptail.create ~capacity:20_000 () in
  let delivered = ref 0 in
  let link =
    Net.Link.create ~engine ~bandwidth_bps:(Sim.Units.mbps 100.0) ~delay:0.001
      ~queue
      ~dst:(fun _ -> incr delivered)
      ()
  in
  for i = 1 to 20_000 do
    Net.Link.send link
      (Net.Packet.data ~uid:i ~flow:0 ~seq:i ~size_bytes:1000 ~born:0.0)
  done;
  Sim.Engine.run engine;
  assert (!delivered = 20_000)

(* A 12-job sweep on one persistent fork worker, so the timing is
   per-job dispatch cost (one fork per sweep plus a pipe and Marshal
   round trip per job) rather than machine-dependent parallel speedup.
   A sweep that quietly quarantined its jobs would "win" every timing,
   so a clean sweep is asserted. (The GC counters are per-process: the
   words exclude allocation done in the worker process.) *)
let campaign_sweep () =
  let outcome =
    Campaign.Sweep.run ~jobs:1
      (Campaign.Sweep.grid
         ~variants:Core.Variant.[ Newreno; Rr ]
         ~uniform_losses:[ 0.01; 0.05 ] ~seed_count:3 ~duration:5.0 ())
  in
  assert (outcome.Campaign.Sweep.quarantined = [] && outcome.skipped = 0)

(* -- Bechamel timing: one test per artifact -- *)

(* Kept as a plain (name, thunk) list so --only can restrict a run to
   name prefixes without paying for the rest. *)
let all_benchmarks : (string * (unit -> unit)) list =
  [
    ("fig5/3drops", fun () -> ignore (Experiments.Fig5.run ~drops:3 ()));
    ("fig5/6drops", fun () -> ignore (Experiments.Fig5.run ~drops:6 ()));
    ( "fig6/red",
      fun () ->
        ignore
          (Experiments.Fig6.run ~variants:Core.Variant.[ Newreno; Sack; Rr ] ())
    );
    ( "fig7/point",
      fun () ->
        (* One representative sweep point; the full figure is 9 of
           these per variant pair. *)
        ignore
          (Experiments.Fig7.run ~loss_rates:[ 0.02 ] ~seeds:[ 3L ]
             ~duration:100.0 ()) );
    ( "table5/all-cases",
      fun () -> ignore (Experiments.Table5.run ~deadline:60.0 ()) );
    ("ablation/6drops", fun () -> ignore (Experiments.Ablation.run ()));
    ( "ackloss/point",
      fun () -> ignore (Experiments.Ack_loss.run ~rates:[ 0.1 ] ~seeds:[ 2L ] ())
    );
    ( "sync/droptail-vs-red",
      fun () ->
        ignore (Experiments.Sync.run ~variants:[ Core.Variant.Rr ] ~duration:10.0 ())
    );
    ("smooth/grid", fun () -> ignore (Experiments.Smooth.run ()));
    ("vegas/decomposition", fun () -> ignore (Experiments.Vegas_claim.run ()));
    ( "two-way/ack-compression",
      fun () ->
        ignore
          (Experiments.Two_way.run ~variants:[ Core.Variant.Rr ] ~duration:20.0 ())
    );
    ( "sensitivity/grid",
      fun () ->
        ignore
          (Experiments.Sensitivity.run ~buffers:[ 8 ]
             ~delays:[ Sim.Units.ms 96.0 ] ()) );
    ( "rtt-fairness/grid",
      fun () ->
        ignore
          (Experiments.Rtt_fairness.run ~variants:[ Core.Variant.Rr ]
             ~duration:40.0 ()) );
    ("campaign/12-job-fork", campaign_sweep);
    ( "micro/engine-100k-events",
      fun () ->
        let engine = Sim.Engine.create () in
        for i = 1 to 100_000 do
          ignore
            (Sim.Engine.schedule_after engine
               ~delay:(float_of_int (i mod 97))
               nop)
        done;
        Sim.Engine.run engine );
    ( "micro/rr-20s-lossy-flow",
      fun () ->
        ignore
          (Experiments.Scenario.run
             (Experiments.Scenario.make
                ~topology:(Experiments.Scenario.dumbbell (Net.Dumbbell.paper_config ~flows:1))
                ~flows:[ Experiments.Scenario.flow Core.Variant.Rr ]
                ~params:{ Tcp.Params.default with rwnd = 20 }
                ~seed:1L ~duration:20.0 ~uniform_loss:0.01 ())) );
    ( "topology/parking-lot-3hop",
      fun () ->
        ignore
          (Experiments.Parking_lot.run ~variants:[ Core.Variant.Rr ]
             ~hop_counts:[ 3 ] ~duration:10.0 ()) );
    ( "many-flow/2k-flows-5s",
      fun () -> ignore (Experiments.Many_flow.run ~flows:2_000 ~duration:5.0 ())
    );
    (* The scale acceptance point: 50k flows for 60 simulated seconds
       must stay in single-digit wall-clock seconds and O(flows)
       memory. *)
    ( "many-flow/50k-flows-60s",
      fun () ->
        ignore (Experiments.Many_flow.run ~flows:50_000 ~duration:60.0 ()) );
    ("sched/push-pop", sched_push_pop);
    ("sched/cancel", sched_cancel);
    ("link/saturated", link_saturated);
  ]

let matches_only only name =
  only = []
  || List.exists (fun prefix -> String.starts_with ~prefix name) only

let tests ~only =
  Test.make_grouped ~name:"rr-repro"
    (List.filter_map
       (fun (name, f) ->
         if matches_only only name then
           Some (Test.make ~name (Staged.stage f))
         else None)
       all_benchmarks)

(* One benchmark's per-run estimates: wall clock plus the GC
   allocation counters, all OLS slopes over the same measurement run
   (Bechamel samples Gc minor/major words alongside the clock, so the
   counters cost no extra benchmark executions). *)
type row = { ms : float; minor_words : float; major_words : float }

let measure ~only () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances =
    Instance.[ monotonic_clock; minor_allocated; major_allocated ]
  in
  let cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second 1.0) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances (tests ~only) in
  let estimates instance =
    let results = Analyze.all ols instance raw in
    Hashtbl.fold
      (fun name ols_result acc ->
        match Analyze.OLS.estimates ols_result with
        | Some [ value ] -> (name, value) :: acc
        | Some _ | None -> acc)
      results []
  in
  let times = estimates Instance.monotonic_clock in
  let minor = estimates Instance.minor_allocated in
  let major = estimates Instance.major_allocated in
  let words table name =
    Option.value ~default:0.0 (List.assoc_opt name table)
  in
  List.sort (fun (a, _) (b, _) -> compare a b) times
  |> List.map (fun (name, nanoseconds) ->
         ( name,
           {
             ms = nanoseconds /. 1e6;
             minor_words = words minor name;
             major_words = words major name;
           } ))

let benchmark ~only () =
  banner "Bechamel timings (wall-clock and GC words per experiment run)";
  List.iter
    (fun (name, row) ->
      Printf.printf "  %-44s %10.3f ms/run %14.0f minor-w %10.0f major-w\n"
        name row.ms row.minor_words row.major_words)
    (measure ~only ())

(* Machine-readable timings for regression tracking; the checked-in
   bench/baseline.json is a snapshot of this output. Schema 2 widened
   each entry from a bare ms number to {ms, minor_words, major_words}. *)
let benchmark_json ~only () =
  let rows = measure ~only () in
  print_string "{\"schema\":\"rr-sim-bench/2\",\"unit\":\"ms\",\"results\":{";
  List.iteri
    (fun i (name, row) ->
      Printf.printf
        "%s\n  \"%s\": {\"ms\": %.3f, \"minor_words\": %.0f, \"major_words\": \
         %.0f}"
        (if i = 0 then "" else ",")
        name row.ms row.minor_words row.major_words)
    rows;
  print_string "\n}}\n"

(* -- --check: diff fresh timings against the recorded baseline.
   Wall-clock comparisons across machines are only meaningful within a
   generous tolerance; the default factor 10 catches algorithmic
   regressions (and vanished benchmarks), not noise. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Baseline keys carry the Bechamel group prefix ("rr-repro/..."); the
   --only prefixes are written against the bare benchmark names. *)
let strip_group key =
  let prefix = "rr-repro/" in
  if String.starts_with ~prefix key then
    String.sub key (String.length prefix) (String.length key - String.length prefix)
  else key

let benchmark_check ~only ~baseline ~tolerance =
  let doc =
    match Campaign.Json.of_string (read_file baseline) with
    | Ok doc -> doc
    | Error message ->
      Printf.eprintf "cannot parse %s: %s\n" baseline message;
      exit 2
  in
  let schema =
    Option.bind (Campaign.Json.member "schema" doc) Campaign.Json.to_str
  in
  if schema <> Some "rr-sim-bench/2" then begin
    Printf.eprintf "%s: expected schema rr-sim-bench/2\n" baseline;
    exit 2
  end;
  let recorded =
    match Option.bind (Campaign.Json.member "results" doc) Campaign.Json.to_obj with
    | Some fields ->
      List.filter_map
        (fun (name, v) ->
          Option.map
            (fun ms -> (name, ms))
            (Option.bind (Campaign.Json.member "ms" v) Campaign.Json.to_float))
        fields
    | None ->
      Printf.eprintf "%s has no results object\n" baseline;
      exit 2
  in
  let recorded =
    List.filter (fun (name, _) -> matches_only only (strip_group name)) recorded
  in
  let current = measure ~only () in
  let failures = ref 0 in
  let rows =
    List.map
      (fun (name, base_ms) ->
        match List.assoc_opt name current with
        | None ->
          incr failures;
          [ name; Printf.sprintf "%.3f" base_ms; "-"; "-"; "MISSING" ]
        | Some row ->
          let cur_ms = row.ms in
          let ratio = cur_ms /. base_ms in
          let ok = ratio <= tolerance in
          if not ok then incr failures;
          [
            name;
            Printf.sprintf "%.3f" base_ms;
            Printf.sprintf "%.3f" cur_ms;
            Printf.sprintf "%.2fx" ratio;
            (if ok then "ok" else "SLOW");
          ])
      recorded
  in
  let extra =
    List.filter (fun (name, _) -> List.assoc_opt name recorded = None) current
  in
  print_string
    (Stats.Text_table.render
       ~header:[ "benchmark"; "baseline (ms)"; "current (ms)"; "ratio"; "" ]
       rows);
  List.iter
    (fun (name, row) ->
      Printf.printf "new (not in baseline): %s  %.3f ms\n" name row.ms)
    extra;
  Printf.printf "\n%d benchmark(s) against %s, tolerance %.1fx: %d failure(s)\n"
    (List.length recorded) baseline tolerance !failures;
  if !failures > 0 then exit 1

let () =
  let argv = Array.to_list Sys.argv in
  let has flag = List.mem flag argv in
  let value_of flag default =
    let rec scan = function
      | f :: v :: _ when f = flag -> v
      | _ :: rest -> scan rest
      | [] -> default
    in
    scan argv
  in
  let only =
    match value_of "--only" "" with
    | "" -> []
    | prefixes -> String.split_on_char ',' prefixes
  in
  if has "--check" then
    benchmark_check ~only
      ~baseline:(value_of "--baseline" "bench/baseline.json")
      ~tolerance:(float_of_string (value_of "--tolerance" "10.0"))
  else if has "--json" then benchmark_json ~only ()
  else begin
    reproduce ();
    if not (has "--fast") then benchmark ~only ()
  end

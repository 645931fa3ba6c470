(* The benchmark's own arithmetic: span self time, per-layer costs
   from two runs, how a rate combines its passes, and the metric
   tables against BENCHMARK.json. *)

open Perfbench_kit

let close = Alcotest.float 1e-9

(* A scripted clock: each reading returns the next value. *)
let scripted readings =
  let rest = ref readings in
  fun () ->
    match !rest with
    | t :: tl ->
      rest := tl;
      t
    | [] -> Alcotest.fail "clock read too often"

let test_nested_self () =
  (* pass [0, 100] holds ack [10, 60], which holds emit [20, 35]; a
     second emit [70, 80] sits directly under pass. *)
  let span =
    Span.create ~clock:(scripted [ 0; 10; 20; 35; 60; 70; 80; 100 ]) [| "pass"; "ack"; "emit" |]
  in
  Span.enter span 0;
  Span.enter span 1;
  Span.enter span 2;
  Span.leave span;
  Span.leave span;
  Span.enter span 2;
  Span.leave span;
  Span.leave span;
  Alcotest.(check int) "pass total" 100 (Span.total_ns span 0);
  Alcotest.(check int) "pass self" 40 (Span.self_ns span 0);
  Alcotest.(check int) "ack self" 35 (Span.self_ns span 1);
  Alcotest.(check int) "emit self, both parents" 25 (Span.self_ns span 2);
  Alcotest.(check int) "emit count" 2 (Span.count span 2);
  Alcotest.(check int) "self times add up to the root"
    (Span.total_ns span 0)
    (Span.self_ns span 0 + Span.self_ns span 1 + Span.self_ns span 2)

let test_wrap_exception () =
  let span = Span.create ~clock:(scripted [ 0; 5 ]) [| "f" |] in
  let f = Span.wrap span 0 (fun () -> failwith "boom") in
  Alcotest.check_raises "re-raised" (Failure "boom") f;
  Alcotest.(check int) "closed anyway" 5 (Span.total_ns span 0);
  Alcotest.check_raises "stack empty again" (Invalid_argument "Span.leave: no open span")
    (fun () -> Span.leave span)

let test_wrap_allocates_nothing () =
  let span = Span.create [| "f" |] in
  let f = Span.wrap span 0 ignore in
  f ();
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    f ()
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) (Printf.sprintf "%.0f words for 10k spans" words) true (words < 100.0);
  Alcotest.(check int) "recorded" 10_001 (Span.count span 0)

let test_per_second () =
  (* 1000 segments per pass. Three passes in a fast phase and two in a
     slow one: 5000 segments over 8 s, where the median pass (1 s) would
     read the run as wholly fast. *)
  Alcotest.check close "total work over total time" 625.0
    (Sample.per_second ~count:1000 ~seconds:[ 1.0; 2.5; 1.0; 2.5; 1.0 ]);
  Alcotest.check close "one pass" 400.0 (Sample.per_second ~count:1000 ~seconds:[ 2.5 ]);
  Alcotest.check_raises "no passes" (Invalid_argument "Sample.per_second: no passes")
    (fun () -> ignore (Sample.per_second ~count:1000 ~seconds:[]))

let test_diff () =
  (* 2000 segments: audited passes take a median 1.5 s, unaudited a
     median 1.0 s, so the auditor costs 0.5 s / 2000 = 250 us each. *)
  Alcotest.check close "layer cost" 250_000.0
    (Sample.diff_ns_per ~count:2000 ~with_:[ 1.4; 1.5; 1.9 ] ~without:[ 1.0; 0.9; 1.2 ]);
  Alcotest.check close "noise can read negative" (-50_000.0)
    (Sample.diff_ns_per ~count:2000 ~with_:[ 1.0 ] ~without:[ 1.1 ])

let benchmark_json () =
  let ic = open_in_bin "../../BENCHMARK.json" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Campaign.Json.of_string text with
  | Ok json -> json
  | Error message -> Alcotest.fail message

let declared key =
  let json = benchmark_json () in
  let entries = Option.get (Option.bind (Campaign.Json.member key json) Campaign.Json.to_list) in
  List.map
    (fun entry ->
      let field name =
        Option.get (Option.bind (Campaign.Json.member name entry) Campaign.Json.to_str)
      in
      (field "name", field "unit"))
    entries

let printed table = List.map (fun { Metric.name; unit } -> (name, unit)) table

let test_tables () =
  let pair = Alcotest.(list (pair string string)) in
  Alcotest.check pair "end_to_end" (declared "end_to_end") (printed Metric.end_to_end);
  Alcotest.check pair "per_layer" (declared "per_layer") (printed Metric.per_layer)

let test_result_line () =
  let values = List.map (fun { Metric.name; _ } -> (name, 1.5)) Metric.end_to_end in
  let line =
    Metric.result_line ~table:Metric.end_to_end ~correct:true ~attempted:3 ~failed:0 values
  in
  let json = Result.get_ok (Campaign.Json.of_string line) in
  Alcotest.(check (list string)) "keys" [ "correct"; "attempted"; "failed"; "metrics" ]
    (List.map fst (Option.get (Campaign.Json.to_obj json)));
  let metrics = Option.get (Option.bind (Campaign.Json.member "metrics" json) Campaign.Json.to_obj) in
  Alcotest.(check (list string)) "every metric, in table order"
    (List.map (fun { Metric.name; _ } -> name) Metric.end_to_end)
    (List.map fst metrics);
  Alcotest.check_raises "unknown metric"
    (Invalid_argument "Metric.result_line: unknown metric wall_s") (fun () ->
      ignore
        (Metric.result_line ~table:Metric.end_to_end ~correct:true ~attempted:1 ~failed:0
           (("wall_s", 1.0) :: values)));
  Alcotest.check_raises "missing metric"
    (Invalid_argument "Metric.result_line: missing metric segments_per_s") (fun () ->
      ignore
        (Metric.result_line ~table:Metric.end_to_end ~correct:true ~attempted:1 ~failed:0
           (List.tl values)))

let () =
  Alcotest.run "perfbench"
    [
      ( "span",
        [
          Alcotest.test_case "nested self time" `Quick test_nested_self;
          Alcotest.test_case "exception closes the span" `Quick test_wrap_exception;
          Alcotest.test_case "wrap allocates nothing" `Quick test_wrap_allocates_nothing;
        ] );
      ( "sample",
        [
          Alcotest.test_case "segments_per_s over passes" `Quick test_per_second;
          Alcotest.test_case "layer cost from two runs" `Quick test_diff;
        ] );
      ( "metric",
        [
          Alcotest.test_case "tables match BENCHMARK.json" `Quick test_tables;
          Alcotest.test_case "result line" `Quick test_result_line;
        ] );
    ]

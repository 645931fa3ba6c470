(* Stats library: series, metrics, flow traces, tables, plots. *)

let test_series_basic () =
  let s = Stats.Series.create () in
  Alcotest.(check bool) "empty" true (Stats.Series.is_empty s);
  Stats.Series.add s ~time:1.0 ~value:10.0;
  Stats.Series.add s ~time:2.0 ~value:20.0;
  Stats.Series.add s ~time:2.0 ~value:25.0;
  Alcotest.(check int) "length" 3 (Stats.Series.length s);
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "to_list"
    [ (1.0, 10.0); (2.0, 20.0); (2.0, 25.0) ]
    (Stats.Series.to_list s)

let test_series_monotone_time () =
  let s = Stats.Series.create () in
  Stats.Series.add s ~time:5.0 ~value:1.0;
  Alcotest.check_raises "backwards" (Invalid_argument "Series.add: time going backwards")
    (fun () -> Stats.Series.add s ~time:4.0 ~value:2.0)

let test_series_value_at () =
  let s = Stats.Series.create () in
  List.iter
    (fun (t, v) -> Stats.Series.add s ~time:t ~value:v)
    [ (1.0, 10.0); (3.0, 30.0); (5.0, 50.0) ];
  Alcotest.(check bool) "before first" true (Stats.Series.value_at s ~time:0.5 = None);
  Alcotest.(check bool) "exact" true (Stats.Series.value_at s ~time:3.0 = Some 30.0);
  Alcotest.(check bool) "between" true (Stats.Series.value_at s ~time:4.0 = Some 30.0);
  Alcotest.(check bool) "after last" true (Stats.Series.value_at s ~time:9.0 = Some 50.0)

let test_series_first_time_at_or_above () =
  let s = Stats.Series.create () in
  List.iter
    (fun (t, v) -> Stats.Series.add s ~time:t ~value:v)
    [ (1.0, 10.0); (2.0, 30.0); (3.0, 20.0) ];
  Alcotest.(check bool) "found" true
    (Stats.Series.first_time_at_or_above s ~value:25.0 = Some 2.0);
  Alcotest.(check bool) "not reached" true
    (Stats.Series.first_time_at_or_above s ~value:99.0 = None)

let test_series_between () =
  let s = Stats.Series.create () in
  List.iter
    (fun t -> Stats.Series.add s ~time:t ~value:t)
    [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  Alcotest.(check int) "window" 3 (List.length (Stats.Series.between s ~t0:2.0 ~t1:4.0))

let test_series_csv () =
  let s = Stats.Series.create () in
  Stats.Series.add s ~time:1.0 ~value:2.0;
  let csv = Stats.Series.to_csv s in
  Alcotest.(check bool) "header" true (String.length csv > 10);
  Alcotest.(check bool) "row" true
    (String.split_on_char '\n' csv |> List.exists (fun l -> l = "1.000000,2"))

let prop_value_at_matches_scan =
  QCheck2.Test.make ~name:"series value_at matches linear scan" ~count:300
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 40) (float_bound_inclusive 100.0))
        (float_bound_inclusive 120.0))
    (fun (times, query) ->
      let sorted = List.sort compare times in
      let s = Stats.Series.create () in
      List.iteri
        (fun i t -> Stats.Series.add s ~time:t ~value:(float_of_int i))
        sorted;
      let reference =
        let rec scan best = function
          | [] -> best
          | (t, v) :: rest -> if t <= query then scan (Some v) rest else best
        in
        scan None (List.mapi (fun i t -> (t, float_of_int i)) sorted)
      in
      Stats.Series.value_at s ~time:query = reference)

let make_trace_via_agent () =
  (* Use a harness sender so hooks fire exactly as in production. *)
  let h = Harness.make Core.Variant.(create Newreno) in
  let trace = Stats.Flow_trace.attach h.Harness.agent in
  (h, trace)

let test_flow_trace_records () =
  let h, trace = make_trace_via_agent () in
  Harness.start ~segments:5 h;
  Harness.deliver_ack h 0;
  Harness.deliver_ack h 1;
  Alcotest.(check bool) "sends recorded" true
    (Stats.Series.length trace.Stats.Flow_trace.sends >= 3);
  Alcotest.(check int) "una steps" 2 (Stats.Series.length trace.Stats.Flow_trace.una);
  Alcotest.(check int) "acks" 2 (Stats.Series.length trace.Stats.Flow_trace.acks);
  Alcotest.(check int) "cwnd sampled per ack" 2
    (Stats.Series.length trace.Stats.Flow_trace.cwnd);
  (* The hook fires before that ACK's growth is applied, so the second
     sample shows the window after the first ACK's increment. *)
  (match Stats.Series.last trace.Stats.Flow_trace.cwnd with
  | Some (_, cwnd) -> Alcotest.(check (float 1e-9)) "cwnd after 1st growth" 2.0 cwnd
  | None -> Alcotest.fail "cwnd series")

let test_flow_trace_una_monotone () =
  let h, trace = make_trace_via_agent () in
  Harness.open_window h ~target:10;
  Harness.dupacks h 3;
  (* dupacks do not move the una series *)
  let values = List.map snd (Stats.Series.to_list trace.Stats.Flow_trace.una) in
  let rec increasing = function
    | [] | [ _ ] -> true
    | a :: (b :: _ as rest) -> a < b && increasing rest
  in
  Alcotest.(check bool) "strictly increasing" true (increasing values)

let test_recovery_episodes_pairing () =
  let t =
    {
      Stats.Flow_trace.sends = Stats.Series.create ();
      acks = Stats.Series.create ();
      una = Stats.Series.create ();
      cwnd = Stats.Series.create ();
      last_una = min_int;
      recovery_entries = [ 5.0; 1.0 ];
      recovery_exits = [ 6.0; 2.0 ];
      timeouts = [];
    }
  in
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "paired" [ (1.0, 2.0); (5.0, 6.0) ]
    (Stats.Flow_trace.recovery_episodes t)

let test_throughput () =
  let h, trace = make_trace_via_agent () in
  Harness.start ~segments:100 h;
  (* Ack 10 segments at t=1. *)
  Harness.advance h ~by:1.0;
  Harness.deliver_ack h 9;
  let bw =
    Stats.Metrics.effective_throughput_bps trace ~mss:1000 ~t0:0.0 ~t1:1.0
  in
  (* (9 - (-1)) segments... una went from -1 (no sample => -1 default)
     to 9: 10 segments * 8000 bits over 1 s. *)
  Alcotest.(check (float 1e-6)) "throughput" 80_000.0 bw

let test_loss_rate () =
  Alcotest.(check (float 1e-9)) "zero txs" 0.0
    (Stats.Metrics.loss_rate ~drops:5 ~transmissions:0);
  Alcotest.(check (float 1e-9)) "ratio" 0.1
    (Stats.Metrics.loss_rate ~drops:10 ~transmissions:100)

let test_jain_index () =
  Alcotest.(check (float 1e-9)) "equal shares" 1.0
    (Stats.Metrics.jain_index [ 5.0; 5.0; 5.0; 5.0 ]);
  Alcotest.(check (float 1e-9)) "one taker" 0.25
    (Stats.Metrics.jain_index [ 8.0; 0.0; 0.0; 0.0 ]);
  Alcotest.(check (float 1e-9)) "empty" 1.0 (Stats.Metrics.jain_index []);
  Alcotest.(check (float 1e-9)) "all zero" 1.0
    (Stats.Metrics.jain_index [ 0.0; 0.0 ])

let test_mean_and_cov () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Stats.Metrics.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check bool) "mean of empty is nan" true
    (Float.is_nan (Stats.Metrics.mean []));
  Alcotest.(check (float 1e-9)) "constant series" 0.0
    (Stats.Metrics.coefficient_of_variation [ 4.0; 4.0; 4.0 ]);
  Alcotest.(check bool) "spread raises cov" true
    (Stats.Metrics.coefficient_of_variation [ 1.0; 7.0 ]
    > Stats.Metrics.coefficient_of_variation [ 3.0; 5.0 ])

(* The streaming summaries the many-flow report prints, against their
   list-based definitions. Two floats agree when both are NaN or they
   differ by at most 1e-9 of the larger. *)
let agree a b =
  (Float.is_nan a && Float.is_nan b)
  || Float.abs (a -. b) <= 1e-9 *. Float.max (Float.abs a) (Float.abs b)

(* Checked after every observation, so every case covers n = 0 and
   n = 1 too. *)
let prop_welford_matches_summary =
  QCheck2.Test.make ~name:"welford matches Summary.of_list" ~count:300
    QCheck2.Gen.(list_size (int_range 0 200) (float_bound_inclusive 1e6))
    (fun sample ->
      let w = Stats.Welford.create () in
      let matches prefix =
        let s = Stats.Summary.of_list prefix in
        agree (Stats.Welford.mean w) s.Stats.Summary.mean
        && agree (Stats.Welford.stddev w) s.Stats.Summary.stddev
      in
      let rec go prefix = function
        | [] -> matches prefix
        | x :: rest ->
          matches prefix
          && begin
            Stats.Welford.add w x;
            go (prefix @ [ x ]) rest
          end
      in
      go [] sample)

(* The nearest-rank q-quantile of n sorted values is the k-th, for the
   least k >= 1 with k >= q n; none when n = 0. *)
let nearest_rank sorted q =
  let n = Array.length sorted in
  let rec find k =
    if float_of_int k >= q *. float_of_int n then sorted.(k - 1)
    else find (k + 1)
  in
  if n = 0 then nan else find 1

let prop_reservoir_exact_within_capacity =
  QCheck2.Test.make ~name:"reservoir exact within capacity" ~count:300
    QCheck2.Gen.(
      let q = oneof [ pure 0.0; pure 1.0; float_bound_inclusive 1.0 ] in
      let refused =
        oneof
          [
            map (fun x -> -1e-9 -. x) (float_bound_inclusive 10.0);
            map (fun x -> 1.0 +. 1e-9 +. x) (float_bound_inclusive 10.0);
            pure nan;
          ]
      in
      quad
        (list_size (int_range 0 100) (float_bound_inclusive 1e6))
        (int_range 0 10) (list_size (int_range 1 10) q) refused)
    (fun (sample, slack, qs, refused) ->
      let reservoir =
        Stats.Reservoir.create
          ~capacity:(max 1 (List.length sample + slack))
          ~rng:(Sim.Rng.create 7L) ()
      in
      List.iter (Stats.Reservoir.add reservoir) sample;
      let sorted = Array.of_list (List.sort compare sample) in
      List.for_all2 Float.equal
        (Stats.Reservoir.quantiles reservoir qs)
        (List.map (nearest_rank sorted) qs)
      &&
      match Stats.Reservoir.quantiles reservoir [ refused ] with
      | _ -> false
      | exception Invalid_argument _ -> true)

let test_queue_monitor () =
  let engine = Sim.Engine.create () in
  let level = ref 0 in
  Sim.Engine.schedule_at engine ~time:0.45 (fun () -> level := 7);
  let series =
    Stats.Queue_monitor.sample ~engine ~probe:(fun () -> !level) ~interval:0.1
      ~until:1.0
  in
  Sim.Engine.run engine;
  Alcotest.(check int) "11 samples over [0,1]" 11 (Stats.Series.length series);
  Alcotest.(check bool) "before change" true
    (Stats.Series.value_at series ~time:0.4 = Some 0.0);
  Alcotest.(check bool) "after change" true
    (Stats.Series.value_at series ~time:0.5 = Some 7.0)

let test_queue_monitor_invalid () =
  let engine = Sim.Engine.create () in
  Alcotest.check_raises "interval"
    (Invalid_argument "Queue_monitor.sample: interval <= 0") (fun () ->
      ignore
        (Stats.Queue_monitor.sample ~engine ~probe:(fun () -> 0) ~interval:0.0
           ~until:1.0))

let test_text_table () =
  let rendered =
    Stats.Text_table.render ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333" ] ]
  in
  let lines = String.split_on_char '\n' rendered in
  Alcotest.(check int) "line count" 5 (List.length lines);
  (* header, separator, 2 rows, trailing newline -> 5 splits *)
  match lines with
  | header :: separator :: _ ->
    Alcotest.(check bool) "aligned" true
      (String.length header = String.length separator)
  | _ -> Alcotest.fail "structure"

let test_ascii_plot () =
  let plot =
    Stats.Ascii_plot.render ~width:20 ~height:5 ~x_label:"x" ~y_label:"y"
      [ { Stats.Ascii_plot.label = "s"; glyph = '*'; points = [ (0.0, 0.0); (1.0, 1.0) ] } ]
  in
  Alcotest.(check bool) "has glyph" true (String.contains plot '*');
  Alcotest.(check bool) "has legend" true (String.contains plot 's');
  Alcotest.(check string) "empty input" "(no data to plot)\n"
    (Stats.Ascii_plot.render ~width:20 ~height:5 ~x_label:"x" ~y_label:"y" [])

let suite =
  [
    ( "series",
      [
        Alcotest.test_case "basic" `Quick test_series_basic;
        Alcotest.test_case "monotone time" `Quick test_series_monotone_time;
        Alcotest.test_case "value_at" `Quick test_series_value_at;
        Alcotest.test_case "first_time_at_or_above" `Quick
          test_series_first_time_at_or_above;
        Alcotest.test_case "between" `Quick test_series_between;
        Alcotest.test_case "csv" `Quick test_series_csv;
        Qcheck_seed.to_alcotest prop_value_at_matches_scan;
      ] );
    ( "flow_trace",
      [
        Alcotest.test_case "records" `Quick test_flow_trace_records;
        Alcotest.test_case "una monotone" `Quick test_flow_trace_una_monotone;
        Alcotest.test_case "episode pairing" `Quick test_recovery_episodes_pairing;
      ] );
    ( "metrics",
      [
        Alcotest.test_case "throughput" `Quick test_throughput;
        Alcotest.test_case "loss rate" `Quick test_loss_rate;
        Alcotest.test_case "jain index" `Quick test_jain_index;
        Alcotest.test_case "mean and cov" `Quick test_mean_and_cov;
      ] );
    ( "streaming",
      [
        Qcheck_seed.to_alcotest prop_welford_matches_summary;
        Qcheck_seed.to_alcotest prop_reservoir_exact_within_capacity;
      ] );
    ( "queue_monitor",
      [
        Alcotest.test_case "sampling" `Quick test_queue_monitor;
        Alcotest.test_case "invalid interval" `Quick test_queue_monitor_invalid;
      ] );
    ( "rendering",
      [
        Alcotest.test_case "text table" `Quick test_text_table;
        Alcotest.test_case "ascii plot" `Quick test_ascii_plot;
      ] );
  ]

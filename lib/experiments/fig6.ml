type result = {
  variant : Core.Variant.t;
  throughput_bps : float;
  mean_throughput_bps : float;
  timeouts : int;
  total_timeouts : int;
  fast_recoveries : int;
  sends : (float * float) list;
  acks : (float * float) list;
  cwnd : (float * float) list;
  red_early_drops : int;
  red_forced_drops : int;
}

type outcome = { duration : float; results : result list }

let flows = 10

(* Five flows at t = 0, then one every 0.5 s (paper §3.3). *)
let start_time flow = if flow < 5 then 0.0 else 0.5 *. float_of_int (flow - 4)

let config =
  {
    (Net.Dumbbell.paper_config ~flows) with
    gateway = Net.Dumbbell.Red { capacity = 25; params = Net.Red.paper_params };
  }

(* ns-2's default advertised window (window_ = 20 packets) is what makes
   the paper's flows see "bursty losses after cwnd reaches 16"; without
   the cap, slow start over-shoots into dozens of drops per window. *)
let params = { Tcp.Params.default with rwnd = 20 }

let paper_variants = Core.Variant.[ Tahoe; Newreno; Sack; Rr ]

let run_variant ~seed ~duration variant =
  let flow_specs =
    List.init flows (fun flow ->
        { (Scenario.flow variant) with Scenario.start = start_time flow })
  in
  Scenario.run (Scenario.make ~topology:(Scenario.dumbbell config) ~flows:flow_specs ~params ~seed ~duration ())

(* The mean goodput is over all flows, so every flow must have started:
   an empty measuring span would count as zero. *)
let validate ~duration =
  if not (Float.is_finite duration && duration > 0.0) then
    invalid_arg (Printf.sprintf "--duration %g: must be finite and > 0" duration);
  let last_start = start_time (flows - 1) in
  if duration <= last_start then
    invalid_arg
      (Printf.sprintf "--duration %g: must exceed %g s, when the last flow starts"
         duration last_start)

let run ?(variants = paper_variants) ?(seed = 11L) ?(duration = 6.0) () =
  validate ~duration;
  let results =
    List.map
      (fun variant ->
        let t = run_variant ~seed ~duration variant in
        let throughput_of flow =
          Scenario.goodput_bps t ~flow ~t0:(start_time flow) ~t1:duration
        in
        let trace = t.Scenario.results.(0).Scenario.trace in
        let counters flow = Scenario.counters t ~flow in
        let sum f = List.fold_left ( + ) 0 (List.init flows f) in
        let early, forced =
          match Scenario.red_stats t with
          | Some stats -> (stats.Net.Red.early, stats.Net.Red.forced)
          | None -> (0, 0)
        in
        {
          variant;
          throughput_bps = throughput_of 0;
          mean_throughput_bps =
            List.fold_left ( +. ) 0.0 (List.init flows throughput_of)
            /. float_of_int flows;
          timeouts = (counters 0).Tcp.Counters.timeouts;
          total_timeouts = sum (fun i -> (counters i).Tcp.Counters.timeouts);
          fast_recoveries = (counters 0).Tcp.Counters.fast_retransmits;
          sends = Stats.Series.to_list trace.Stats.Flow_trace.sends;
          acks = Stats.Series.to_list trace.Stats.Flow_trace.una;
          cwnd = Stats.Series.to_list trace.Stats.Flow_trace.cwnd;
          red_early_drops = early;
          red_forced_drops = forced;
        })
      variants
  in
  { duration; results }

let report outcome =
  let header =
    [
      "variant";
      "flow1 goodput (Kbps)";
      "mean goodput (Kbps)";
      "flow1 timeouts";
      "all timeouts";
      "flow1 recoveries";
      "RED drops (early/forced)";
    ]
  in
  let rows =
    List.map
      (fun r ->
        [
          Core.Variant.name r.variant;
          Printf.sprintf "%.1f" (r.throughput_bps /. 1000.0);
          Printf.sprintf "%.1f" (r.mean_throughput_bps /. 1000.0);
          string_of_int r.timeouts;
          string_of_int r.total_timeouts;
          string_of_int r.fast_recoveries;
          Printf.sprintf "%d/%d" r.red_early_drops r.red_forced_drops;
        ])
      outcome.results
  in
  Printf.sprintf
    "Figure 6 (RED gateway, 10 staggered flows, %g s)\n\
     paper shape: RR achieves the highest effective throughput;\n\
     RR > SACK > New-Reno > Tahoe, New-Reno stalling on bursty loss\n\n\
     %s"
    outcome.duration
    (Stats.Text_table.render ~header rows)

let plot result =
  Stats.Ascii_plot.render ~width:72 ~height:20 ~x_label:"time (s)"
    ~y_label:"segment number"
    [
      { Stats.Ascii_plot.label = "transmission"; glyph = '.'; points = result.sends };
      { Stats.Ascii_plot.label = "cumulative ACK"; glyph = 'o'; points = result.acks };
    ]

let plot_cwnd result =
  Stats.Ascii_plot.render ~width:72 ~height:12 ~x_label:"time (s)"
    ~y_label:"cwnd (segments)"
    [ { Stats.Ascii_plot.label = "congestion window"; glyph = '*';
        points = result.cwnd } ]

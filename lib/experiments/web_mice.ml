type cell = {
  variant : Core.Variant.t;
  throughput_bps : float;
  timeouts : float;
  mice_finished : float;
  mice_completion : float;
}

type outcome = { mice_flows : int; cells : cell list }

let duration = 30.0

let run_one ~seed ~mice_flows variant =
  let config = Net.Dumbbell.paper_config ~flows:(1 + mice_flows) in
  let mouse =
    Scenario.flow ~source:(Scenario.Mice Workload.Mice.default)
      Core.Variant.Newreno
  in
  let t =
    Scenario.run
      (Scenario.make ~topology:(Scenario.dumbbell config)
         ~flows:(Scenario.flow variant :: List.init mice_flows (fun _ -> mouse))
         ~seed ~duration ())
  in
  let throughput = Scenario.goodput_bps t ~flow:0 ~t0:2.0 ~t1:duration in
  let timeouts = (Scenario.counters t ~flow:0).Tcp.Counters.timeouts in
  let finished = ref 0 in
  let completion_sum = ref 0.0 in
  Array.iteri
    (fun i result ->
      if i > 0 then
        match result.Scenario.mice with
        | None -> ()
        | Some mice ->
          finished := !finished + Workload.Mice.finished_bursts mice;
          List.iter
            (fun c ->
              completion_sum :=
                !completion_sum
                +. (c.Workload.Mice.finished -. c.Workload.Mice.started))
            (Workload.Mice.completions mice))
    t.Scenario.results;
  let mean_completion =
    if !finished = 0 then 0.0 else !completion_sum /. float_of_int !finished
  in
  (throughput, timeouts, !finished, mean_completion)

let run ?(mice_flows = 2) ?(variants = Core.Variant.[ Newreno; Sack; Rr ])
    ?(seeds = [ 7L; 31L ]) () =
  let cells =
    List.map
      (fun variant ->
        let runs =
          List.map (fun seed -> run_one ~seed ~mice_flows variant) seeds
        in
        {
          variant;
          throughput_bps =
            Stats.Metrics.mean (List.map (fun (x, _, _, _) -> x) runs);
          timeouts =
            Stats.Metrics.mean
              (List.map (fun (_, t, _, _) -> float_of_int t) runs);
          mice_finished =
            Stats.Metrics.mean
              (List.map (fun (_, _, f, _) -> float_of_int f) runs);
          mice_completion =
            Stats.Metrics.mean (List.map (fun (_, _, _, c) -> c) runs);
        })
      variants
  in
  { mice_flows; cells }

let report outcome =
  let header =
    [
      "Bulk variant";
      "bulk goodput (Kbps)";
      "bulk timeouts";
      "mice bursts done";
      "mice completion (ms)";
    ]
  in
  let rows =
    List.map
      (fun cell ->
        [
          Core.Variant.name cell.variant;
          Printf.sprintf "%.1f" (cell.throughput_bps /. 1000.0);
          Printf.sprintf "%.1f" cell.timeouts;
          Printf.sprintf "%.1f" cell.mice_finished;
          Printf.sprintf "%.0f" (1000.0 *. cell.mice_completion);
        ])
      outcome.cells
  in
  Printf.sprintf
    "Bulk transfer among %d Pareto on/off web-mice sources\n\
     (mice are New-Reno; completion time is per finished burst)\n\n\
     %s"
    outcome.mice_flows
    (Stats.Text_table.render ~header rows)

type outcome = unit Variant_table.t

let duration = 30.0

let mice_flows = 2

let cell () variant ~seed =
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
  [|
    throughput;
    float_of_int timeouts;
    float_of_int !finished;
    mean_completion;
  |]

let run () =
  Variant_table.run ~rows:[ () ] ~variants:Core.Variant.[ Newreno; Sack; Rr ]
    ~seeds:[ 7L; 31L ] cell

let report outcome =
  Printf.sprintf
    "Bulk transfer among %d Pareto on/off web-mice sources\n\
     (mice are New-Reno; completion time is per finished burst)\n\n\
     %s"
    mice_flows
    (Variant_table.render_long
       ~keys:[ ("Bulk variant", fun (_, variant) -> Core.Variant.name variant) ]
       ~columns:
         [
           Variant_table.kbps "bulk goodput (Kbps)" 0;
           Variant_table.count "bulk timeouts" 1;
           Variant_table.count "mice bursts done" 2;
           ( "mice completion (ms)",
             fun m -> Printf.sprintf "%.0f" (1000.0 *. m.(3)) );
         ]
       outcome)

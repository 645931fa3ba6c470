type outcome = {
  duration : float;
  table : (string * Net.Dumbbell.gateway) Variant_table.t;
}

let flows = 10

let params = { Tcp.Params.default with rwnd = 20 }

(* Cluster the drop log into loss events separated by at least one RTT,
   and average the fraction of flows each event touches. *)
let synchronization ~rtt drop_log =
  let data_drops =
    List.filter_map
      (fun { Scenario.time; flow; payload } ->
        match payload with
        | Scenario.Data _ -> Some (time, flow)
        | Scenario.Ack -> None)
      drop_log
  in
  let rec cluster events current last_time = function
    | [] -> List.rev (if current = [] then events else current :: events)
    | (time, flow) :: rest ->
      if current <> [] && time -. last_time > rtt then
        cluster (current :: events) [ flow ] time rest
      else cluster events (flow :: current) time rest
  in
  let events = cluster [] [] 0.0 data_drops in
  let fraction event =
    let distinct = List.sort_uniq compare event in
    float_of_int (List.length distinct) /. float_of_int flows
  in
  match events with
  | [] -> (0.0, 0)
  | _ ->
    (Stats.Metrics.mean (List.map fraction events), List.length events)

let cell ~duration (_, gateway) variant ~seed =
  let config = { (Net.Dumbbell.paper_config ~flows) with gateway } in
  let flow_specs =
    List.init flows (fun flow ->
        {
          (Scenario.flow variant) with
          Scenario.start = 0.2 *. float_of_int flow;
        })
  in
  let t =
    Scenario.run
      (Scenario.make ~topology:(Scenario.dumbbell config) ~flows:flow_specs ~params ~seed ~duration
         ~monitor_queue:0.05 ())
  in
  let mss = params.Tcp.Params.mss in
  let goodputs =
    List.init flows (fun flow ->
        Scenario.goodput_bps t ~flow ~t0:5.0 ~t1:duration)
  in
  let rtt = Scenario.rtt_estimate config ~mss ~ack_size:params.Tcp.Params.ack_size in
  let sync_index, loss_events = synchronization ~rtt t.Scenario.drop_log in
  let queue_cov =
    match t.Scenario.queue_occupancy with
    | Some series ->
      let steady = Stats.Series.between series ~t0:5.0 ~t1:duration in
      Stats.Metrics.coefficient_of_variation (List.map snd steady)
    | None -> 0.0
  in
  [|
    sync_index;
    float_of_int loss_events;
    List.fold_left ( +. ) 0.0 goodputs
    /. config.Net.Dumbbell.bottleneck_bandwidth_bps;
    Stats.Metrics.jain_index goodputs;
    queue_cov;
  |]

let run ?(variants = Core.Variant.[ Reno; Rr ]) ?(seed = 31L)
    ?(duration = 30.0) () =
  {
    duration;
    table =
      Variant_table.run ~variants ~seeds:[ seed ]
        ~rows:
          [
            ("drop-tail", Net.Dumbbell.Droptail { capacity = 25 });
            ( "red",
              Net.Dumbbell.Red { capacity = 25; params = Net.Red.paper_params }
            );
          ]
        (cell ~duration);
  }

let report outcome =
  Printf.sprintf
    "Global synchronization: drop-tail vs RED (10 flows, %.0f s; §3.3)\n\
     expected shape: drop-tail loss events hit a larger fraction of the\n\
     flows at once (higher sync index) than RED's randomized early drops\n\n\
     %s"
    outcome.duration
    (Variant_table.render_long
       ~keys:
         [
           ("gateway", fun ((label, _), _) -> label);
           ("variant", fun (_, variant) -> Core.Variant.name variant);
         ]
       ~columns:
         [
           ("sync index", fun m -> Printf.sprintf "%.2f" m.(0));
           Variant_table.integer "loss events" 1;
           ("utilization", fun m -> Printf.sprintf "%.1f%%" (100.0 *. m.(2)));
           ("Jain index", fun m -> Printf.sprintf "%.3f" m.(3));
           ("queue CoV", fun m -> Printf.sprintf "%.2f" m.(4));
         ]
       outcome.table)

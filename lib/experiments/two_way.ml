type outcome = unit Variant_table.t

let forward_flows = 2

let backward_flows = 2

let params = { Tcp.Params.default with rwnd = 20 }

(* Both trunks get the paper's tight 8-packet gateway; one-way runs
   leave the reverse trunk to ACKs alone, two-way runs contend it. *)
let config ~flows =
  {
    (Net.Dumbbell.paper_config ~flows) with
    gateway = Net.Dumbbell.Droptail { capacity = 8 };
    reverse_capacity = 8;
  }

let goodput ~duration t flow =
  Scenario.goodput_bps t ~flow ~t0:5.0 ~t1:duration

let mean values = Stats.Metrics.mean values

let cell ~duration () variant ~seed =
  let one_way =
    Scenario.run
      (Scenario.make
         ~topology:(Scenario.dumbbell (config ~flows:forward_flows))
         ~flows:
           (List.init forward_flows (fun flow ->
                {
                  (Scenario.flow variant) with
                  Scenario.start = 0.2 *. float_of_int flow;
                }))
         ~params ~seed ~duration ())
  in
  let flows = forward_flows + backward_flows in
  let flow_specs =
    List.init flows (fun flow ->
        let direction =
          if flow < forward_flows then Net.Dumbbell.Forward
          else Net.Dumbbell.Backward
        in
        {
          (Scenario.flow ~direction variant) with
          Scenario.start = 0.2 *. float_of_int flow;
        })
  in
  let t =
    Scenario.run
      (Scenario.make ~topology:(Scenario.dumbbell (config ~flows)) ~flows:flow_specs ~params ~seed
         ~duration ())
  in
  let forward = List.init forward_flows Fun.id in
  let backward = List.init backward_flows (fun i -> forward_flows + i) in
  let ack_drops =
    List.length
      (List.filter
         (fun { Scenario.payload; _ } -> payload = Scenario.Ack)
         t.Scenario.drop_log)
  in
  let timeouts =
    List.fold_left
      (fun acc flow -> acc + (Scenario.counters t ~flow).Tcp.Counters.timeouts)
      0 forward
  in
  [|
    mean (List.init forward_flows (goodput ~duration one_way));
    mean (List.map (goodput ~duration t) forward);
    float_of_int ack_drops;
    float_of_int timeouts;
    mean (List.map (goodput ~duration t) backward);
  |]

let run ?(variants = Core.Variant.[ Reno; Rr ]) ?(seed = 53L)
    ?(duration = 40.0) () =
  Variant_table.run ~rows:[ () ] ~variants ~seeds:[ seed ] (cell ~duration)

let report outcome =
  Printf.sprintf
    "Two-way traffic (paper reference [22]): %d forward vs %d backward flows\n\
     expected shape: reverse-direction data compresses and drops the\n\
     forward flows' ACKs, cutting their goodput well below the one-way\n\
     baseline even though the forward trunk itself is no more loaded\n\n\
     %s"
    forward_flows backward_flows
    (Variant_table.render_long
       ~keys:[ ("variant", fun (_, variant) -> Core.Variant.name variant) ]
       ~columns:
         [
           Variant_table.kbps "fwd goodput 1-way (Kbps)" 0;
           Variant_table.kbps "fwd goodput 2-way (Kbps)" 1;
           ( "penalty",
             fun m -> Printf.sprintf "%.0f%%" (100.0 *. (1.0 -. (m.(1) /. m.(0))))
           );
           Variant_table.integer "ACK drops" 2;
           Variant_table.integer "fwd timeouts" 3;
           Variant_table.kbps "bwd goodput (Kbps)" 4;
         ]
       outcome)

type row = {
  variant : Core.Variant.t;
  one_way_goodput_bps : float;
  two_way_goodput_bps : float;
  ack_drops : int;
  forward_timeouts : int;
  backward_goodput_bps : float;
}

type outcome = { duration : float; rows : row list }

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

let run_one_way ~seed ~duration ~variant =
  let t =
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
  mean (List.init forward_flows (goodput ~duration t))

let run_two_way ~seed ~duration ~variant =
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
  ( mean (List.map (goodput ~duration t) forward),
    mean (List.map (goodput ~duration t) backward),
    ack_drops,
    timeouts )

let run ?(variants = Core.Variant.[ Reno; Rr ]) ?(seed = 53L)
    ?(duration = 40.0) () =
  let rows =
    List.map
      (fun variant ->
        let one_way = run_one_way ~seed ~duration ~variant in
        let two_way, backward, ack_drops, forward_timeouts =
          run_two_way ~seed ~duration ~variant
        in
        {
          variant;
          one_way_goodput_bps = one_way;
          two_way_goodput_bps = two_way;
          ack_drops;
          forward_timeouts;
          backward_goodput_bps = backward;
        })
      variants
  in
  { duration; rows }

let report outcome =
  let header =
    [
      "variant";
      "fwd goodput 1-way (Kbps)";
      "fwd goodput 2-way (Kbps)";
      "penalty";
      "ACK drops";
      "fwd timeouts";
      "bwd goodput (Kbps)";
    ]
  in
  let rows =
    List.map
      (fun row ->
        [
          Core.Variant.name row.variant;
          Printf.sprintf "%.1f" (row.one_way_goodput_bps /. 1000.0);
          Printf.sprintf "%.1f" (row.two_way_goodput_bps /. 1000.0);
          Printf.sprintf "%.0f%%"
            (100.0
            *. (1.0 -. (row.two_way_goodput_bps /. row.one_way_goodput_bps)));
          string_of_int row.ack_drops;
          string_of_int row.forward_timeouts;
          Printf.sprintf "%.1f" (row.backward_goodput_bps /. 1000.0);
        ])
      outcome.rows
  in
  Printf.sprintf
    "Two-way traffic (paper reference [22]): %d forward vs %d backward flows\n\
     expected shape: reverse-direction data compresses and drops the\n\
     forward flows' ACKs, cutting their goodput well below the one-way\n\
     baseline even though the forward trunk itself is no more loaded\n\n\
     %s"
    forward_flows backward_flows
    (Stats.Text_table.render ~header rows)

type row = {
  label : string;
  throughput_bps : float;
  recovery_seconds : float option;
  timeouts : int;
}

type outcome = { drops : int; rows : row list }

let params = { Tcp.Params.default with initial_ssthresh = 16.0; rwnd = 20 }

let configurations =
  [
    ("reno", None);
    ("vegas (full)", Some Tcp.Vegas.full);
    ( "vegas recovery only",
      Some
        {
          Tcp.Vegas.fine_retransmit = true;
          rtt_based_avoidance = false;
          cautious_slow_start = false;
        } );
    ( "vegas avoidance only",
      Some
        {
          Tcp.Vegas.fine_retransmit = false;
          rtt_based_avoidance = true;
          cautious_slow_start = true;
        } );
  ]

let make_flow label = function
  | None -> Scenario.flow Core.Variant.Reno
  | Some mechanisms ->
    {
      Scenario.label;
      make =
        (fun ~engine ~params ~flow ~emit () ->
          Scenario.build
            (Tcp.Vegas.create_with ~engine ~params ~flow ~emit ~mechanisms ()));
      start = 0.0;
      source = Scenario.Infinite;
      direction = Net.Dumbbell.Forward;
    }

let run ?(drops = 3) ?(seed = 7L) () =
  let drop_seqs = List.init drops (fun i -> 33 + i) in
  let last_drop = List.fold_left max 0 drop_seqs in
  let rules =
    List.map (fun seq -> { Net.Loss.flow = 0; seq; occurrence = 1 }) drop_seqs
  in
  let rows =
    List.map
      (fun (label, mechanisms) ->
        let t =
          Scenario.run
            (Scenario.make
               ~topology:(Scenario.dumbbell (Net.Dumbbell.paper_config ~flows:1))
               ~flows:[ make_flow label mechanisms ]
               ~params ~seed ~forced_drops:rules ())
        in
        let t0 =
          match Scenario.first_drop_time t ~flow:0 with
          | Some time -> time
          | None -> failwith "Vegas_claim: drops did not occur"
        in
        {
          label;
          throughput_bps = Scenario.goodput_bps t ~flow:0 ~t0 ~t1:(t0 +. 3.0);
          recovery_seconds =
            Option.map
              (fun finish -> finish -. t0)
              (Stats.Metrics.recovery_completion_time
                 t.Scenario.results.(0).Scenario.trace ~target_seq:last_drop);
          timeouts = (Scenario.counters t ~flow:0).Tcp.Counters.timeouts;
        })
      configurations
  in
  { drops; rows }

let report outcome =
  let header =
    [ "configuration"; "goodput (Kbps)"; "recovery time (s)"; "timeouts" ]
  in
  let rows =
    List.map
      (fun row ->
        [
          row.label;
          Printf.sprintf "%.1f" (row.throughput_bps /. 1000.0);
          (match row.recovery_seconds with
          | Some s -> Printf.sprintf "%.2f" s
          | None -> "never");
          string_of_int row.timeouts;
        ])
      outcome.rows
  in
  Printf.sprintf
    "Vegas decomposition (ref [8] of the paper): %d-loss burst recovery\n\
     claim: Vegas' gain over Reno comes from its recovery changes, not\n\
     its RTT-based congestion avoidance\n\n\
     %s"
    outcome.drops
    (Stats.Text_table.render ~header rows)

type row = {
  label : string;
  ablation : Core.Rr.ablation;
  throughput_bps : float;
  recovery_seconds : float option;
  timeouts : int;
}

type outcome = { drops : int; measure_window : float; rows : row list }

let designs =
  [
    ("paper design", Core.Rr.paper_design);
    ( "retreat: 1 pkt per dupack",
      { Core.Rr.paper_design with retreat_per_dupack = true } );
    ( "backoff: halve actnum",
      { Core.Rr.paper_design with multiplicative_backoff = true } );
    ( "exit: cwnd <- ssthresh",
      { Core.Rr.paper_design with exit_to_ssthresh = true } );
  ]

let run ?(drops = 6) ?(measure_window = 3.0) () =
  let drop_seqs = List.init drops (fun i -> 33 + i) in
  let last_drop = List.fold_left max 0 drop_seqs in
  let rules =
    List.map (fun seq -> { Net.Loss.flow = 0; seq; occurrence = 1 }) drop_seqs
  in
  let params =
    { Tcp.Params.default with initial_ssthresh = 16.0; rwnd = 20 }
  in
  let rows =
    List.map
      (fun (label, ablation) ->
        let make ~engine ~params ~flow ~emit () =
          let agent, handle =
            Core.Rr.create ~engine ~params ~flow ~emit ~ablation ()
          in
          Scenario.build ~rr:handle agent
        in
        let t =
          Scenario.run
            (Scenario.make
               ~topology:(Scenario.dumbbell (Net.Dumbbell.paper_config ~flows:1))
               ~flows:
                 [ { Scenario.label; make; start = 0.0; source = Scenario.Infinite;
                    direction = Net.Dumbbell.Forward } ]
               ~params ~forced_drops:rules ())
        in
        let trace = t.Scenario.results.(0).Scenario.trace in
        let t0 =
          match Scenario.first_drop_time t ~flow:0 with
          | Some time -> time
          | None -> failwith "Ablation: forced drops did not occur"
        in
        {
          label;
          ablation;
          throughput_bps =
            Scenario.goodput_bps t ~flow:0 ~t0 ~t1:(t0 +. measure_window);
          recovery_seconds =
            Option.map
              (fun finish -> finish -. t0)
              (Stats.Metrics.recovery_completion_time trace
                 ~target_seq:last_drop);
          timeouts = (Scenario.counters t ~flow:0).Tcp.Counters.timeouts;
        })
      designs
  in
  { drops; measure_window; rows }

let report outcome =
  let header =
    [ "design"; "eff. throughput (Kbps)"; "recovery time (s)"; "timeouts" ]
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
    "RR design ablations (Figure 5 scenario, %d losses in a window)\n\n%s"
    outcome.drops
    (Stats.Text_table.render ~header rows)

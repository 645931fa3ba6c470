type cell = {
  buffer : int;
  bottleneck_delay : float;
  rr_bps : float;
  newreno_bps : float;
  sack_bps : float;
}

type outcome = { drops : int; cells : cell list }

let params = { Tcp.Params.default with initial_ssthresh = 16.0; rwnd = 20 }

let measure ~drops ~buffer ~bottleneck_delay variant =
  let config =
    {
      (Net.Dumbbell.paper_config ~flows:1) with
      gateway = Net.Dumbbell.Droptail { capacity = buffer };
      bottleneck_delay;
    }
  in
  let rules =
    List.init drops (fun i -> { Net.Loss.flow = 0; seq = 33 + i; occurrence = 1 })
  in
  let t =
    Scenario.run
      (Scenario.make ~topology:(Scenario.dumbbell config) ~flows:[ Scenario.flow variant ] ~params
         ~forced_drops:rules ())
  in
  let t0 =
    match Scenario.first_drop_time t ~flow:0 with
    | Some time -> time
    | None -> failwith "Sensitivity: drops did not occur"
  in
  (* Scale the measurement window with the RTT so slow paths get the
     same number of round trips to recover in. *)
  let rtt =
    Scenario.rtt_estimate config ~mss:params.Tcp.Params.mss
      ~ack_size:params.Tcp.Params.ack_size
  in
  Scenario.goodput_bps t ~flow:0 ~t0 ~t1:(t0 +. (15.0 *. rtt))

let run ?(drops = 6) ?(buffers = [ 4; 8; 16; 25 ])
    ?(delays = [ Sim.Units.ms 48.0; Sim.Units.ms 96.0; Sim.Units.ms 192.0 ]) () =
  let cells =
    List.concat_map
      (fun buffer ->
        List.map
          (fun bottleneck_delay ->
            let goodput variant =
              measure ~drops ~buffer ~bottleneck_delay variant
            in
            {
              buffer;
              bottleneck_delay;
              rr_bps = goodput Core.Variant.Rr;
              newreno_bps = goodput Core.Variant.Newreno;
              sack_bps = goodput Core.Variant.Sack;
            })
          delays)
      buffers
  in
  { drops; cells }

let ordering_holds outcome =
  List.for_all (fun cell -> cell.rr_bps > cell.newreno_bps) outcome.cells

let report outcome =
  let header =
    [
      "buffer (pkts)";
      "1-way delay (ms)";
      "RR (Kbps)";
      "New-Reno (Kbps)";
      "SACK (Kbps)";
      "RR/NR";
      "RR/SACK";
    ]
  in
  let rows =
    List.map
      (fun cell ->
        [
          string_of_int cell.buffer;
          Printf.sprintf "%.0f" (cell.bottleneck_delay *. 1000.0);
          Printf.sprintf "%.1f" (cell.rr_bps /. 1000.0);
          Printf.sprintf "%.1f" (cell.newreno_bps /. 1000.0);
          Printf.sprintf "%.1f" (cell.sack_bps /. 1000.0);
          Printf.sprintf "%.2f" (cell.rr_bps /. cell.newreno_bps);
          Printf.sprintf "%.2f" (cell.rr_bps /. cell.sack_bps);
        ])
      outcome.cells
  in
  Printf.sprintf
    "Environment sensitivity (%d-loss burst across buffer x delay grid)\n\
     robustness check: RR > New-Reno in every cell, RR ~ SACK throughout\n\
     (ordering holds: %b)\n\n\
     %s"
    outcome.drops (ordering_holds outcome)
    (Stats.Text_table.render ~header rows)

type cell = {
  buffer : int;
  bottleneck_delay : float;
  rr_bps : float;
  newreno_bps : float;
  sack_bps : float;
}

type outcome = { cells : cell list }

let drops = 6

let goodput ~buffer ~bottleneck_delay variant =
  let config =
    {
      (Net.Dumbbell.paper_config ~flows:1) with
      gateway = Net.Dumbbell.Droptail { capacity = buffer };
      bottleneck_delay;
    }
  in
  (* Scale the measurement window with the RTT so slow paths get the
     same number of round trips to recover in. *)
  let rtt =
    Scenario.rtt_estimate config ~mss:Tcp.Params.default.mss
      ~ack_size:Tcp.Params.default.ack_size
  in
  (Fig5.measure ~drops ~window:(15.0 *. rtt)
     (Scenario.run
        (Fig5.scenario ~config ~drops ~seed:7L (Scenario.flow variant))))
    .throughput_bps

let run ?(buffers = [ 4; 8; 16; 25 ])
    ?(delays = [ Sim.Units.ms 48.0; Sim.Units.ms 96.0; Sim.Units.ms 192.0 ]) () =
  let cells =
    List.concat_map
      (fun buffer ->
        List.map
          (fun bottleneck_delay ->
            let goodput = goodput ~buffer ~bottleneck_delay in
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
  { cells }

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
    drops (ordering_holds outcome)
    (Stats.Text_table.render ~header rows)

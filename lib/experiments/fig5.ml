type row = {
  variant : Core.Variant.t;
  throughput_bps : float;
  recovery_seconds : float option;
  timeouts : int;
  retransmits : int;
}

type outcome = {
  drops : int;
  drop_seqs : int list;
  measure_window : float;
  rows : row list;
}

(* The flow slow-starts 1,2,4,8,16 and turns to congestion avoidance at
   ssthresh 16, so segments 31..47 travel in one ~17-segment window; a
   drop list starting at 33 lands k losses inside it while leaving
   enough above-loss segments to generate the three duplicate ACKs fast
   retransmit needs. rwnd 20 = the path's bandwidth-delay product, so
   nothing else is ever dropped. *)
let drop_base = 33

let params =
  { Tcp.Params.default with initial_ssthresh = 16.0; rwnd = 20 }

let drop_seqs ~drops = List.init drops (fun i -> drop_base + i)

let paper_variants =
  Core.Variant.[ Tahoe; Reno; Newreno; Sack; Rr ]

let run_variant ~drops ~seed variant =
  let rules =
    List.map
      (fun seq -> { Net.Loss.flow = 0; seq; occurrence = 1 })
      (drop_seqs ~drops)
  in
  Scenario.run
    (Scenario.make
       ~topology:(Scenario.dumbbell (Net.Dumbbell.paper_config ~flows:1))
       ~flows:[ Scenario.flow variant ] ~params ~seed ~forced_drops:rules ())

let run ~drops ?(measure_window = 3.0) ?(variants = paper_variants)
    ?(seed = 7L) () =
  if drops < 1 then invalid_arg "Fig5.run: drops < 1";
  let seqs = drop_seqs ~drops in
  let last_drop = List.fold_left max 0 seqs in
  let rows =
    List.map
      (fun variant ->
        let t = run_variant ~drops ~seed variant in
        let trace = t.Scenario.results.(0).Scenario.trace in
        let t0 =
          match Scenario.first_drop_time t ~flow:0 with
          | Some time -> time
          | None -> failwith "Fig5: forced drops did not occur"
        in
        let throughput_bps =
          Scenario.goodput_bps t ~flow:0 ~t0 ~t1:(t0 +. measure_window)
        in
        let recovery_seconds =
          Option.map
            (fun finish -> finish -. t0)
            (Stats.Metrics.recovery_completion_time trace
               ~target_seq:last_drop)
        in
        let counters = Scenario.counters t ~flow:0 in
        {
          variant;
          throughput_bps;
          recovery_seconds;
          timeouts = counters.Tcp.Counters.timeouts;
          retransmits = counters.Tcp.Counters.retransmits;
        })
      variants
  in
  { drops; drop_seqs = seqs; measure_window; rows }

type background_row = {
  b_variant : Core.Variant.t;
  transfer_seconds : float option;
  effective_throughput_bps : float option;
  target_drops : int;
  b_timeouts : int;
}

type background_outcome = {
  file_bytes : int;
  target_start : float;
  b_rows : background_row list;
}

let background_target_start = 2.0

let run_background ?(file_bytes = 100_000) ?(variants = paper_variants)
    ?(seed = 7L) () =
  let b_rows =
    List.map
      (fun variant ->
        let flow_specs =
          {
            (Scenario.flow variant) with
            Scenario.start = background_target_start;
            source = Scenario.File_bytes file_bytes;
          }
          :: List.init 2 (fun i ->
                 {
                   (Scenario.flow variant) with
                   Scenario.start = 0.4 *. float_of_int i;
                 })
        in
        let t =
          Scenario.run
            (Scenario.make
               ~topology:(Scenario.dumbbell (Net.Dumbbell.paper_config ~flows:3))
               ~flows:flow_specs
               ~params:{ Tcp.Params.default with rwnd = 20 }
               ~seed ~duration:120.0 ())
        in
        let result = t.Scenario.results.(0) in
        let transfer_seconds =
          Option.map
            (fun c -> c.Workload.Ftp.finished -. c.Workload.Ftp.started)
            result.Scenario.completion
        in
        {
          b_variant = variant;
          transfer_seconds;
          effective_throughput_bps =
            Option.map
              (fun seconds -> float_of_int (8 * file_bytes) /. seconds)
              transfer_seconds;
          target_drops = Scenario.drops t ~flow:0;
          b_timeouts = (Scenario.counters t ~flow:0).Tcp.Counters.timeouts;
        })
      variants
  in
  { file_bytes; target_start = background_target_start; b_rows }

let report_background outcome =
  let header =
    [
      "variant";
      "transfer time (s)";
      "eff. throughput (Kbps)";
      "target drops";
      "timeouts";
    ]
  in
  let rows =
    List.map
      (fun row ->
        [
          Core.Variant.name row.b_variant;
          (match row.transfer_seconds with
          | Some s -> Printf.sprintf "%.2f" s
          | None -> "unfinished");
          (match row.effective_throughput_bps with
          | Some bw -> Printf.sprintf "%.1f" (bw /. 1000.0)
          | None -> "-");
          string_of_int row.target_drops;
          string_of_int row.b_timeouts;
        ])
      outcome.b_rows
  in
  Printf.sprintf
    "Figure 5, literal 3-flow setup: %d KB transfer vs 2 background flows\n\
     (drop-tail buffer 8; losses arise from the competition itself)\n\
     caveat: the background runs the same variant, so each row sees a\n\
     DIFFERENT loss pattern (see 'target drops') — drop-tail phase\n\
     effects dominate; the forced-drop mode is the controlled comparison\n\n\
     %s"
    (outcome.file_bytes / 1000)
    (Stats.Text_table.render ~header rows)

let report outcome =
  let header =
    [
      "variant";
      "eff. throughput (Kbps)";
      "recovery time (s)";
      "timeouts";
      "retransmits";
    ]
  in
  let rows =
    List.map
      (fun row ->
        [
          Core.Variant.name row.variant;
          Printf.sprintf "%.1f" (row.throughput_bps /. 1000.0);
          (match row.recovery_seconds with
          | Some s -> Printf.sprintf "%.2f" s
          | None -> "never");
          string_of_int row.timeouts;
          string_of_int row.retransmits;
        ])
      outcome.rows
  in
  Printf.sprintf
    "Figure 5 (%d packet losses within a window, drop-tail gateway)\n\
     losses forced at segments %s; throughput over %.1f s from first drop\n\
     paper shape: RR >= SACK, both > New-Reno; Tahoe > New-Reno at 6 drops\n\n\
     %s"
    outcome.drops
    (String.concat "," (List.map string_of_int outcome.drop_seqs))
    outcome.measure_window
    (Stats.Text_table.render ~header rows)

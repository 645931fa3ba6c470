(* The flow slow-starts 1,2,4,8,16 and turns to congestion avoidance at
   ssthresh 16, so segments 31..47 travel in one ~17-segment window; a
   drop list starting at 33 lands k losses inside it while leaving
   enough above-loss segments to generate the three duplicate ACKs fast
   retransmit needs. rwnd 20 = the path's bandwidth-delay product, so
   nothing else is ever dropped. *)
let drop_seqs ~drops = List.init drops (fun i -> 33 + i)

let scenario ?(config = Net.Dumbbell.paper_config ~flows:1) ?(ack_loss = 0.0)
    ~drops ~seed flow =
  if drops < 1 then invalid_arg (Printf.sprintf "--drops %d: must be >= 1" drops);
  Scenario.make ~topology:(Scenario.dumbbell config) ~flows:[ flow ]
    ~params:{ Tcp.Params.default with initial_ssthresh = 16.0; rwnd = 20 }
    ~seed ~ack_loss
    ~forced_drops:
      (List.map
         (fun seq -> { Net.Loss.flow = 0; seq; occurrence = 1 })
         (drop_seqs ~drops))
    ()

type measure = {
  throughput_bps : float;
  recovery_seconds : float option;
  timeouts : int;
  retransmits : int;
}

let measure ~drops ~window t =
  (* The first data drop: ACK drops land in the log too. *)
  let rec first_data_drop = function
    | [] -> failwith "Fig5: forced drops did not occur"
    | { Scenario.time; flow = 0; payload = Scenario.Data _ } :: _ -> time
    | _ :: rest -> first_data_drop rest
  in
  let t0 = first_data_drop t.Scenario.drop_log in
  let counters = Scenario.counters t ~flow:0 in
  {
    throughput_bps = Scenario.goodput_bps t ~flow:0 ~t0 ~t1:(t0 +. window);
    recovery_seconds =
      (* Until the cumulative ACK passes the last dropped segment. *)
      Option.map
        (fun finish -> finish -. t0)
        (Stats.Metrics.recovery_completion_time
           t.Scenario.results.(0).Scenario.trace
           ~target_seq:(32 + drops));
    timeouts = counters.Tcp.Counters.timeouts;
    retransmits = counters.Tcp.Counters.retransmits;
  }

type outcome = {
  drops : int;
  measure_window : float;
  rows : (string * measure) list;
}

let paper_variants = Core.Variant.[ Tahoe; Reno; Newreno; Sack; Rr ]

let paper_flows = List.map Scenario.flow paper_variants

let run ~drops ?(measure_window = 3.0) ?(seed = 7L) flows =
  if not (Float.is_finite measure_window && measure_window > 0.0) then
    invalid_arg
      (Printf.sprintf "--window %g: must be finite and > 0" measure_window);
  {
    drops;
    measure_window;
    rows =
      List.map
        (fun (flow : Scenario.flow_spec) ->
          ( flow.label,
            measure ~drops ~window:measure_window
              (Scenario.run (scenario ~drops ~seed flow)) ))
        flows;
  }

let throughput title : measure Variant_table.column =
  (title, fun m -> Printf.sprintf "%.1f" (m.throughput_bps /. 1000.0))

let recovery : measure Variant_table.column =
  ( "recovery time (s)",
    fun m ->
      match m.recovery_seconds with
      | Some s -> Printf.sprintf "%.2f" s
      | None -> "never" )

let timeouts : measure Variant_table.column =
  ("timeouts", fun m -> string_of_int m.timeouts)

let retransmits : measure Variant_table.column =
  ("retransmits", fun m -> string_of_int m.retransmits)

let table ~key ~columns outcome =
  Stats.Text_table.render
    ~header:(key :: List.map fst columns)
    (List.map
       (fun (label, m) -> label :: List.map (fun (_, cell) -> cell m) columns)
       outcome.rows)

type background_row = {
  b_variant : Core.Variant.t;
  transfer_seconds : float option;
  effective_throughput_bps : float option;
  target_drops : int;
  b_timeouts : int;
}

type background_outcome = { b_rows : background_row list }

let background_target_start = 2.0

let background_file_bytes = 100_000

let run_background ?(variants = paper_variants) ?(seed = 7L) () =
  let b_rows =
    List.map
      (fun variant ->
        let flow_specs =
          {
            (Scenario.flow variant) with
            Scenario.start = background_target_start;
            source = Scenario.File_bytes background_file_bytes;
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
              (fun seconds ->
                float_of_int (8 * background_file_bytes) /. seconds)
              transfer_seconds;
          target_drops = Scenario.drops t ~flow:0;
          b_timeouts = (Scenario.counters t ~flow:0).Tcp.Counters.timeouts;
        })
      variants
  in
  { b_rows }

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
    (background_file_bytes / 1000)
    (Stats.Text_table.render ~header rows)

let report outcome =
  Printf.sprintf
    "Figure 5 (%d packet losses within a window, drop-tail gateway)\n\
     losses forced at segments %s; throughput over %.1f s from first drop\n\
     paper shape: RR >= SACK, both > New-Reno; Tahoe > New-Reno at 6 drops\n\n\
     %s"
    outcome.drops
    (String.concat "," (List.map string_of_int (drop_seqs ~drops:outcome.drops)))
    outcome.measure_window
    (table ~key:"variant"
       ~columns:
         [ throughput "eff. throughput (Kbps)"; recovery; timeouts; retransmits ]
       outcome)

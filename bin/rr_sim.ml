(* rr-sim — command-line front end for the Robust-Recovery reproduction.

   One sub-command per paper artifact (fig5, fig6, fig7, table5), plus
   the RR design ablations, option-less commands generated from the
   experiment registry, a free-form [run] command for ad-hoc dumbbell
   scenarios, and [all] to regenerate everything. *)

open Cmdliner

let default_seed = 7L

let seed_arg =
  let doc = "Random seed for stochastic components (RED, loss injection)." in
  Arg.(value & opt int64 default_seed & info [ "seed" ] ~docv:"SEED" ~doc)

let variant_conv =
  let parse s =
    Result.map_error (fun message -> `Msg message) (Core.Variant.of_string s)
  in
  let print ppf v = Format.pp_print_string ppf (Core.Variant.name v) in
  Arg.conv ~docv:"VARIANT" (parse, print)

let csv_arg =
  let doc =
    "Directory to write per-flow CSV traces into (created if missing)."
  in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"DIR" ~doc)

(* A usage error (a bad flag value or combination) is reported on
   stderr and exits 2. *)
let usage_error fmt =
  Printf.ksprintf
    (fun message ->
      prerr_endline ("rr-sim: " ^ message);
      exit 2)
    fmt

(* File outputs. An unwritable path (missing directory, no permission)
   is a usage error too: checked before the run where possible, and
   never an uncaught exception. *)
let cannot_write path message =
  let prefix = path ^ ": " in
  usage_error "cannot write %s: %s" path
    (if String.starts_with ~prefix message then
       String.sub message (String.length prefix)
         (String.length message - String.length prefix)
     else message)

(* A figure kernel refuses a value outside its domain with
   [Invalid_argument "--FLAG VALUE: REASON"] before it runs anything. *)
let refusing f = try f () with Invalid_argument message -> usage_error "%s" message

let open_output path =
  try open_out_bin path with Sys_error message -> cannot_write path message

let ensure_dir dir =
  match Sys.is_directory dir with
  | true -> ()
  | false -> cannot_write dir "Not a directory"
  | exception Sys_error _ -> (
    try Sys.mkdir dir 0o755 with Sys_error message -> cannot_write dir message)

let write_csv dir name contents =
  let path = Filename.concat dir name in
  let oc = open_output path in
  output_string oc contents;
  close_out oc;
  Printf.printf "wrote %s\n" path

(* A command with no options that prints one report. *)
let report_term report =
  Term.(const (fun () -> print_string (report ())) $ const ())

(* fig5 *)

let fig5_term =
  let drops =
    let doc = "Number of packets dropped within the window (3 or 6)." in
    Arg.(value & opt int 3 & info [ "drops" ] ~docv:"N" ~doc)
  in
  let window =
    let doc = "Measurement window in seconds, starting at the first drop." in
    Arg.(value & opt float 3.0 & info [ "window" ] ~docv:"SECONDS" ~doc)
  in
  let background =
    let doc =
      "Run the paper's literal 3-flow setup (losses from competition) \
       instead of the controlled forced-drop mode."
    in
    Arg.(value & flag & info [ "background" ] ~doc)
  in
  let run drops window background seed =
    if background then
      print_string
        (Experiments.Fig5.report_background (Experiments.Fig5.run_background ~seed ()))
    else
      print_string
        (Experiments.Fig5.report
           (refusing (fun () ->
                Experiments.Fig5.run ~drops ~measure_window:window ~seed
                  Experiments.Fig5.paper_flows)))
  in
  Term.(const run $ drops $ window $ background $ seed_arg)

let fig5_cmd =
  Cmd.v
    (Cmd.info "fig5"
       ~doc:
         "Figure 5: effective throughput during recovery from bursty loss \
          under drop-tail gateways.")
    fig5_term

(* fig6 *)

let fig6_term =
  let plots =
    let doc = "Also print the flow-1 sequence-number ASCII plots." in
    Arg.(value & flag & info [ "plots" ] ~doc)
  in
  let duration =
    let doc = "Simulation length in seconds." in
    Arg.(value & opt float 6.0 & info [ "duration" ] ~docv:"SECONDS" ~doc)
  in
  let only_variant =
    let doc = "Restrict to one TCP variant." in
    Arg.(value & opt (some variant_conv) None & info [ "variant" ] ~doc)
  in
  let run plots duration only_variant seed csv =
    let variants =
      match only_variant with
      | Some v -> Some [ v ]
      | None -> None
    in
    refusing (fun () -> Experiments.Fig6.validate ~duration);
    Option.iter ensure_dir csv;
    let outcome = Experiments.Fig6.run ?variants ~seed ~duration () in
    print_string (Experiments.Fig6.report outcome);
    if plots then
      List.iter
        (fun result ->
          Printf.printf "\n-- %s --\n%s\n%s"
            (Core.Variant.name result.Experiments.Fig6.variant)
            (Experiments.Fig6.plot result)
            (Experiments.Fig6.plot_cwnd result))
        outcome.Experiments.Fig6.results;
    Option.iter
      (fun dir ->
        List.iter
          (fun result ->
            let name =
              Printf.sprintf "fig6_%s_flow1.csv"
                (Core.Variant.name result.Experiments.Fig6.variant)
            in
            let buffer = Buffer.create 4096 in
            Buffer.add_string buffer "time,seq,kind\n";
            List.iter
              (fun (t, s) ->
                Buffer.add_string buffer (Printf.sprintf "%.6f,%.0f,send\n" t s))
              result.Experiments.Fig6.sends;
            List.iter
              (fun (t, s) ->
                Buffer.add_string buffer (Printf.sprintf "%.6f,%.0f,ack\n" t s))
              result.Experiments.Fig6.acks;
            write_csv dir name (Buffer.contents buffer))
          outcome.Experiments.Fig6.results)
      csv
  in
  Term.(const run $ plots $ duration $ only_variant $ seed_arg $ csv_arg)

let fig6_cmd =
  Cmd.v
    (Cmd.info "fig6"
       ~doc:
         "Figure 6: sequence-number dynamics and effective throughput under \
          RED gateways with ten staggered flows.")
    fig6_term

(* fig7 *)

let fig7_term =
  let duration =
    let doc = "Per-point simulation length in seconds." in
    Arg.(value & opt float 100.0 & info [ "duration" ] ~docv:"SECONDS" ~doc)
  in
  let runs =
    let doc = "Number of random seeds averaged per point." in
    Arg.(value & opt int 5 & info [ "runs" ] ~docv:"N" ~doc)
  in
  let delack =
    let doc =
      "Receivers delay ACKs (extension; compares against the C = sqrt(3/4) \
       model)."
    in
    Arg.(value & flag & info [ "delack" ] ~doc)
  in
  let run duration runs delack seed =
    let seeds =
      List.init (Int.max runs 0) (fun i -> Int64.add seed (Int64.of_int i))
    in
    let outcome =
      match Experiments.Fig7.run ~seeds ~duration ~delayed_ack:delack () with
      | outcome -> outcome
      | exception Invalid_argument reason when seeds = [] ->
        usage_error "--runs %d: %s" runs reason
      | exception Invalid_argument message -> usage_error "%s" message
    in
    print_string (Experiments.Fig7.report outcome);
    print_newline ();
    print_string (Experiments.Fig7.plot outcome)
  in
  Term.(const run $ duration $ runs $ delack $ seed_arg)

let fig7_cmd =
  Cmd.v
    (Cmd.info "fig7"
       ~doc:
         "Figure 7: fitness of RR and SACK to the square-root throughput \
          model under uniform random loss.")
    fig7_term

(* table5 *)

let table5_term =
  let run seed =
    print_string (Experiments.Table5.report (Experiments.Table5.run ~seed ()))
  in
  Term.(const run $ seed_arg)

let table5_cmd =
  Cmd.v
    (Cmd.info "table5"
       ~doc:
         "Table 5: fairness of RR against TCP Reno (transfer delay and loss \
          rate of a 100 KB flow).")
    table5_term

(* ablation *)

let ablation_term =
  let drops =
    let doc = "Loss-burst size for the ablation scenario." in
    Arg.(value & opt int 6 & info [ "drops" ] ~docv:"N" ~doc)
  in
  let run drops =
    print_string
      (Experiments.Ablation.report
         (refusing (fun () -> Experiments.Ablation.run ~drops ())))
  in
  Term.(const run $ drops)

let ablation_cmd =
  Cmd.v
    (Cmd.info "ablation" ~doc:"RR design-decision ablation benchmarks.")
    ablation_term

(* The option-less artifacts: each prints its registry entry at the
   default seed, exactly what [all --only NAME] prints below its
   banner. *)

let registry_cmds =
  List.map
    (fun name ->
      let e = Option.get (Experiments.Registry.find name) in
      Cmd.v
        (Cmd.info name ~doc:e.Experiments.Registry.synopsis)
        (report_term (fun () -> e.Experiments.Registry.run ~seed:default_seed)))
    [ "ackloss"; "sync"; "smooth"; "rtt"; "sensitivity"; "twoway"; "vegas" ]

(* audit: invariant sweep over every variant and scenario shape *)

let audit_sweep seed =
  let gateways =
    [ ("drop-tail", Campaign.Job.Droptail 8); ("red", Campaign.Job.Red 25) ]
  in
  let burst n =
    List.init n (fun i -> { Net.Loss.flow = 0; seq = 33 + i; occurrence = 1 })
  in
  (* (name, forced drops, uniform data loss, ACK loss) *)
  let patterns =
    [
      ("clean", [], 0.0, 0.0);
      ("burst3", burst 3, 0.0, 0.0);
      ("burst6", burst 6, 0.0, 0.0);
      ("uniform 2%", [], 0.02, 0.0);
      ("loss 5% + ack 5%", [], 0.05, 0.05);
    ]
  in
  let runs =
    List.concat_map
      (fun variant ->
        List.concat_map
          (fun (gateway_name, gateway) ->
            List.map
              (fun (pattern, forced_drops, uniform_loss, ack_loss) ->
                (* The default job is the audit's shape: two flows on
                   the paper dumbbell for 20 s with a 20-segment window. *)
                let job =
                  {
                    Campaign.Job.default with
                    variant;
                    gateway;
                    uniform_loss;
                    ack_loss;
                    seed;
                  }
                in
                let spec = Campaign.Job.scenario job in
                let result =
                  Campaign.Job.measure job
                    (Experiments.Scenario.run
                       {
                         spec with
                         forced_drops;
                         params =
                           {
                             spec.params with
                             Tcp.Params.initial_ssthresh = 16.0;
                           };
                       })
                in
                ( [ Core.Variant.name variant; gateway_name; pattern ],
                  result.Campaign.Job.audit_checks,
                  result.Campaign.Job.audit_violations ))
              patterns)
          gateways)
      Core.Variant.all
  in
  let total f = List.fold_left (fun acc run -> acc + f run) 0 runs in
  let header = [ "variant"; "gateway"; "pattern"; "checks"; "violations" ] in
  print_string
    (Stats.Text_table.render ~header
       (List.map
          (fun (names, checks, violations) ->
            names @ [ string_of_int checks; string_of_int violations ])
          runs));
  let violations = total (fun (_, _, v) -> v) in
  Printf.printf "\naudit sweep: %d checks across %d runs, %d violation(s)\n"
    (total (fun (_, c, _) -> c))
    (List.length runs) violations;
  if violations > 0 then exit 1

let audit_cmd =
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "Run the invariant auditor over every TCP variant under drop-tail \
          and RED gateways and a range of loss patterns; exit non-zero on \
          any violation.")
    Term.(const audit_sweep $ seed_arg)

(* run: one scenario point, a campaign job plus run-only extras *)

let run_term =
  let variant =
    let doc =
      "TCP variant (tahoe, reno, newreno, sack, fack, vegas, rr, relentless, \
       rrr)."
    in
    Arg.(value & opt string "rr" & info [ "variant" ] ~doc)
  in
  let rrr_level =
    let doc =
      "Target congestion level for the rrr variant: each congestion event \
       multiplies the window by 1 - LEVEL (0.5 = the Reno half-cut). Other \
       variants ignore it."
    in
    Arg.(value & opt float 0.5 & info [ "rrr-level" ] ~docv:"LEVEL" ~doc)
  in
  let topology =
    let doc =
      "Network topology: dumbbell (the paper's Figure 4, default), \
       parking-lot[:HOPS] (--flows flows end to end across HOPS chained \
       bottlenecks, as in sweep --topologies; HOPS <= 64), fat-tree[:PODS] \
       (--flows hosts per pod, one flow per host, striped across pods; \
       PODS <= 64), or many-flow \
       (the flat-array flock scale path; honours --flows, --duration, \
       --rwnd, --buffer and --seed only)."
    in
    Arg.(
      value & opt string "dumbbell" & info [ "topology" ] ~docv:"TOPOLOGY" ~doc)
  in
  let flows =
    let doc = "Number of concurrent flows of that variant." in
    Arg.(value & opt int 1 & info [ "flows" ] ~docv:"N" ~doc)
  in
  let duration =
    let doc = "Simulation length in seconds." in
    Arg.(value & opt float 20.0 & info [ "duration" ] ~docv:"SECONDS" ~doc)
  in
  let red =
    let doc = "Use a RED gateway (Table 4 parameters) instead of drop-tail." in
    Arg.(value & flag & info [ "red" ] ~doc)
  in
  let buffer =
    let doc = "Gateway buffer size in packets." in
    Arg.(value & opt int 8 & info [ "buffer" ] ~docv:"PACKETS" ~doc)
  in
  let loss =
    let doc = "Uniform random data-loss rate injected at R1." in
    Arg.(value & opt float 0.0 & info [ "loss" ] ~docv:"RATE" ~doc)
  in
  let rwnd =
    let doc = "Receiver advertised window in segments." in
    Arg.(value & opt int 20 & info [ "rwnd" ] ~docv:"SEGMENTS" ~doc)
  in
  let ack_loss =
    let doc = "Uniform random ACK-loss rate on the reverse path." in
    Arg.(value & opt float 0.0 & info [ "ack-loss" ] ~docv:"RATE" ~doc)
  in
  let delack =
    let doc = "Enable delayed ACKs at the receivers." in
    Arg.(value & flag & info [ "delack" ] ~doc)
  in
  let limited_transmit =
    let doc = "Enable RFC 3042 limited transmit at the senders." in
    Arg.(value & flag & info [ "limited-transmit" ] ~doc)
  in
  let rto =
    let doc =
      "RTO estimator at the senders: jacobson (classic mean+variance, \
       default), fixed (no adaptation), rfc793 (mean-only, RTO = 2*srtt) or \
       agile (mean+variance with faster gains)."
    in
    Arg.(value & opt string "jacobson" & info [ "rto" ] ~docv:"ESTIMATOR" ~doc)
  in
  let tracefile =
    let doc = "Write an ns-2-style event trace of the whole run to FILE." in
    Arg.(value & opt (some string) None & info [ "tracefile" ] ~docv:"FILE" ~doc)
  in
  let trace =
    let doc =
      "Write a structured JSONL event trace (sends, ACKs, recovery \
       transitions, timeouts, queue enqueue/drop/dequeue) to FILE."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let trace_format =
    let format_conv = Arg.enum [ ("jsonl", `Jsonl); ("binary", `Binary) ] in
    let doc =
      "Encoding for --trace: $(b,jsonl) (one JSON object per line) or \
       $(b,binary) (compact length-prefixed records; convert back with \
       $(b,rr-sim trace export))."
    in
    Arg.(
      value & opt format_conv `Jsonl & info [ "trace-format" ] ~docv:"FORMAT" ~doc)
  in
  let audit =
    let doc = "Print the invariant-audit report; exit non-zero on violations." in
    Arg.(value & flag & info [ "audit" ] ~doc)
  in
  let audit_sample =
    let doc =
      "Audit 1-in-$(docv) events instead of every one. The auditor's shadow \
       state stays exact, so sampled checks never report false positives; \
       the two rules that need the full event stream (queue-fifo and the \
       dequeued-but-never-enqueued arm of queue-conservation) are active \
       only at the default of 1. 0 disables auditing entirely."
    in
    Arg.(value & opt int 1 & info [ "audit-sample" ] ~docv:"N" ~doc)
  in
  let faults =
    let doc =
      "Inject faults, as a comma-separated clause list: flap:PERIOD+DOWN \
       (periodic trunk outage), flap:rand:UP+DOWN (random outages, \
       exponential holding times), drop|hold (queued-backlog policy at cut \
       time), reorder:PROB[:MAXEXTRA] (bounded random extra delay), \
       jitter:MAX (FIFO-preserving delay noise), reverse (reorder/jitter the \
       ACK path too). Example: --faults flap:4+0.5,drop,reorder:0.05"
    in
    Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"SPEC" ~doc)
  in
  let link_schedule =
    let doc =
      "Step the bottleneck link's conditions over time: '@'-prefixed steps \
       @T+RATE[+DELAY] (absolute bps / seconds, '-' = keep), applied at \
       packet boundaries. Example: --link-schedule @2+400000@5+-+0.25 halves \
       the trunk rate at t=2 and raises its one-way delay to 250 ms at t=5. \
       Composes with --faults (relative fade:/handover:/asym: clauses)."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "link-schedule" ] ~docv:"STEPS" ~doc)
  in
  let cross =
    let doc =
      "Add an unresponsive CBR cross-traffic source of RATE bits per second \
       (repeatable): BPS[:BYTES][:reverse], e.g. 200000:1000 or \
       100000:reverse for the ACK path."
    in
    Arg.(
      value & opt_all string []
      & info [ "cross-traffic" ] ~docv:"BPS[:BYTES][:reverse]" ~doc)
  in
  let run variant rrr_level topology flows duration red buffer loss
      rwnd ack_loss delack limited_transmit rto tracefile trace trace_format
      audit audit_sample faults link_schedule cross seed csv =
    (* Every input is checked here, before any output is opened: a bad
       token or value is a usage error naming run's own flag. *)
    let parse flag parser text =
      match parser text with
      | Ok value -> value
      | Error reason -> usage_error "--%s %s: %s" flag text reason
    in
    (* many-flow is a different engine, not a job topology; its job
       stands on the dumbbell only to have its fields checked. *)
    let many_flow =
      String.lowercase_ascii (String.trim topology) = "many-flow"
    in
    let job =
      {
        Campaign.Job.default with
        variant = parse "variant" Core.Variant.of_string variant;
        gateway = (if red then Red buffer else Droptail buffer);
        topology =
          (if many_flow then Dumbbell
           else parse "topology" Campaign.Job.topology_of_string topology);
        uniform_loss = loss;
        ack_loss;
        estimator = parse "rto" Tcp.Rto.estimator_of_string rto;
        rrr_level;
        seed;
        duration;
        flows;
        rwnd;
      }
    in
    (try Campaign.Job.validate ~flags:[ ("rrr_level", "rrr-level") ] job
     with Invalid_argument message -> usage_error "%s" message);
    if audit_sample < 0 then
      usage_error "--audit-sample %d: must be >= 0" audit_sample;
    let fault_spec =
      Option.fold ~none:Faults.Spec.none
        ~some:(parse "faults" Faults.Spec.of_string)
        faults
    in
    let timeline =
      Option.map (parse "link-schedule" Faults.Timeline.of_string) link_schedule
    in
    let sources =
      List.map
        (parse "cross-traffic"
           (Experiments.Scenario.cross_of_string ~until:duration))
        cross
    in
    if many_flow then begin
      Option.iter
        (usage_error
           "--link-schedule %s: does not apply to --topology many-flow")
        link_schedule;
      if not (duration > 0.0) then
        usage_error "--duration %g: must be > 0 for --topology many-flow"
          duration;
      (* The flock scale path: flat arrays and streaming statistics, no
         per-flow agents — most scenario knobs do not apply. *)
      print_string
        (Experiments.Many_flow.report
           (Experiments.Many_flow.run ~flows ~duration ~seed ~buffer
              ~params:{ Tcp.Params.default with rwnd }
              ()))
    end
    else begin
    if job.topology <> Dumbbell && cross <> [] then
      usage_error "--cross-traffic %s: requires --topology dumbbell"
        (List.hd cross);
    let spec = Campaign.Job.scenario ~cross:sources job in
    if not (Experiments.Scenario.faults_fit spec.topology fault_spec) then
      usage_error "--faults %s: asym needs --topology dumbbell"
        (Option.value faults ~default:"");
    Option.iter
      (usage_error "--faults %s: %s" (Option.value faults ~default:""))
      (Experiments.Scenario.rate_overflow spec.topology fault_spec);
    let trace_channel = Option.map open_output trace in
    let tracefile_channel =
      Option.map (fun path -> (path, open_output path)) tracefile
    in
    Option.iter ensure_dir csv;
    (* Close (and thereby flush) the JSONL trace on every exit path,
       including a raising run — otherwise the tail of the trace is
       lost exactly when it is most needed. *)
    let t =
      Fun.protect
        ~finally:(fun () -> Option.iter close_out_noerr trace_channel)
        (fun () ->
          Experiments.Scenario.run
            {
              spec with
              params = { spec.params with limited_transmit };
              delayed_ack = delack;
              monitor_queue = Some 0.1;
              trace_out = trace_channel;
              trace_format;
              audit_sample;
              faults = fault_spec;
              link_schedule = timeline;
            })
    in
    Option.iter (fun path -> Printf.printf "wrote %s\n" path) trace;
    let metrics = (Campaign.Job.measure job t).flow_metrics in
    Printf.printf "%d %s flow(s), %s gateway (buffer %d), %.0f s\n\n%s"
      (List.length metrics)
      (Core.Variant.name job.variant)
      (if red then "RED" else "drop-tail")
      buffer duration
      (Stats.Text_table.render
         ~header:
           [ "flow"; "goodput (Kbps)"; "drops"; "timeouts"; "retransmits" ]
         (List.map
            (fun (m : Campaign.Job.flow_metrics) ->
              [
                string_of_int m.flow;
                Printf.sprintf "%.1f" (m.goodput_bps /. 1000.0);
                string_of_int m.drops;
                string_of_int m.timeouts;
                string_of_int m.retransmits;
              ])
            metrics));
    Array.iter
      (fun cr ->
        let sent = Workload.Cbr.sent cr.Experiments.Scenario.source in
        Printf.printf
          "cross flow %d (cbr, %.0f bps): %d packet(s) sent, %d delivered\n"
          cr.Experiments.Scenario.cross_flow
          cr.Experiments.Scenario.cross.Experiments.Scenario.rate_bps sent
          cr.Experiments.Scenario.received)
      t.Experiments.Scenario.cross_results;
    Option.iter
      (fun injector ->
        (* The rate/delay suffix appears only when a timeline actually
           stepped, so pre-timeline fault runs print their exact
           historical line. *)
        let steps =
          match
            ( Faults.Injector.rate_changes injector,
              Faults.Injector.delay_changes injector )
          with
          | 0, 0 -> ""
          | rates, 0 -> Printf.sprintf ", %d rate step(s)" rates
          | 0, delays -> Printf.sprintf ", %d delay step(s)" delays
          | rates, delays ->
            Printf.sprintf ", %d rate step(s), %d delay step(s)" rates delays
        in
        Printf.printf
          "faults: %d link down(s), %d queued packet(s) dropped, %d \
           reordered, %d jittered%s\n"
          (Faults.Injector.downs injector)
          (Faults.Injector.fault_drops injector)
          (Faults.Injector.reordered injector)
          (Faults.Injector.jittered injector)
          steps)
      t.Experiments.Scenario.injector;
    Option.iter
      (fun dir ->
        List.iteri
          (fun flow result ->
            write_csv dir
              (Printf.sprintf "run_flow%d_una.csv" flow)
              (Stats.Series.to_csv
                 result.Experiments.Scenario.trace.Stats.Flow_trace.una))
          (Array.to_list t.Experiments.Scenario.results);
        Option.iter
          (fun series ->
            write_csv dir "run_queue.csv" (Stats.Series.to_csv series))
          t.Experiments.Scenario.queue_occupancy)
      csv;
    Option.iter
      (fun (path, oc) ->
        output_string oc (Experiments.Scenario.tracefile t);
        close_out oc;
        Printf.printf "wrote %s\n" path)
      tracefile_channel;
    if audit then begin
      print_newline ();
      print_string (Audit.Auditor.report t.Experiments.Scenario.auditor);
      if not (Audit.Auditor.ok t.Experiments.Scenario.auditor) then exit 1
    end
    end
  in
  Term.(
    const run $ variant $ rrr_level $ topology $ flows
    $ duration $ red $ buffer $ loss $ rwnd $ ack_loss $ delack
    $ limited_transmit $ rto $ tracefile $ trace $ trace_format $ audit
    $ audit_sample $ faults $ link_schedule $ cross $ seed_arg $ csv_arg)

let run_cmd =
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run one scenario point (a sweep job, plus run-only faults, link           schedule, cross traffic and outputs) and print per-flow stats.           Every value is checked before the run: a bad value or token exits           2.")
    run_term

(* sweep: parallel campaign over a grid of scenario points *)

let sweep_term =
  (* One flag per campaign axis, straight from the axis table. The
     values are parsed here and the grid validated below, so a bad
     token and a bad value are both usage errors. *)
  let axes =
    List.fold_right
      (fun (Campaign.Job.Axis a as axis) rest ->
        let text =
          Arg.(
            value
            & opt string a.Campaign.Job.default
            & info [ a.flag ] ~docv:a.docv ~doc:a.doc)
        in
        Term.(const (fun text rest -> (axis, text) :: rest) $ text $ rest))
      Campaign.Job.axes (Term.const [])
  in
  let seed_count =
    let doc = "Seeds per grid point (SEED, SEED+1, ...)." in
    Arg.(value & opt int 6 & info [ "seeds" ] ~docv:"N" ~doc)
  in
  let duration =
    let doc = "Per-job simulation length in seconds." in
    Arg.(value & opt float 20.0 & info [ "duration" ] ~docv:"SECONDS" ~doc)
  in
  let flows =
    let doc = "Concurrent same-variant flows per job." in
    Arg.(value & opt int 2 & info [ "flows" ] ~docv:"N" ~doc)
  in
  let rwnd =
    let doc = "Receiver advertised window in segments." in
    Arg.(value & opt int 20 & info [ "rwnd" ] ~docv:"SEGMENTS" ~doc)
  in
  let jobs =
    let doc =
      "Worker processes, forked once per sweep and reused for every job \
       (0 = number of cores)."
    in
    Arg.(value & opt int 0 & info [ "jobs"; "j" ] ~docv:"N" ~doc)
  in
  let cache_dir =
    let doc = "Result-cache directory (content-addressed JSON entries)." in
    Arg.(value & opt string "_campaign" & info [ "cache-dir" ] ~docv:"DIR" ~doc)
  in
  let no_cache =
    let doc = "Disable the on-disk result cache (always run every job)." in
    Arg.(value & flag & info [ "no-cache" ] ~doc)
  in
  let json =
    let doc = "Emit the campaign (points and per-job results) as JSON." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let timeout =
    let doc =
      "Per-job wall-clock deadline in seconds (0 = wait forever). A worker \
       past its deadline is SIGKILLed and reaped, and its job counted as \
       timed out (retried while --retries allows, quarantined after)."
    in
    Arg.(value & opt float 0.0 & info [ "timeout" ] ~docv:"SECONDS" ~doc)
  in
  let retries =
    let doc =
      "Extra attempts for a crashed or timed-out job, with deterministic \
       exponential backoff (see --backoff). A job that fails every attempt \
       is quarantined in the report instead of aborting the sweep."
    in
    Arg.(value & opt int 0 & info [ "retries" ] ~docv:"N" ~doc)
  in
  let backoff =
    let doc =
      "Base retry backoff in seconds: retry N waits backoff * 2^(N-1) (0 = \
       retry at once)."
    in
    Arg.(value & opt float 0.5 & info [ "backoff" ] ~docv:"SECONDS" ~doc)
  in
  let resume =
    let doc =
      "Resume an interrupted or partially failed campaign: validate the run \
       journal under the cache directory and re-execute only unfinished or \
       failed jobs — settled ones are served from the cache, byte-identical."
    in
    Arg.(value & flag & info [ "resume" ] ~doc)
  in
  let run axes seed_count duration flows rwnd jobs cache_dir no_cache json
      timeout retries backoff resume seed =
    let bindings =
      List.map
        (fun (Campaign.Job.Axis a, text) ->
          match Campaign.Job.parse_values a text with
          | Ok values -> Campaign.Sweep.Bind (a, values)
          | Error message ->
            usage_error "--%s %s: %s" a.Campaign.Job.flag text message)
        axes
    in
    let finite_nonnegative flag x =
      if not (Float.is_finite x && x >= 0.0) then
        usage_error "--%s %g: must be finite and >= 0" flag x
    in
    finite_nonnegative "timeout" timeout;
    finite_nonnegative "backoff" backoff;
    if retries < 0 then usage_error "--retries %d: must be >= 0" retries;
    if jobs < 0 then usage_error "--jobs %d: must be >= 0" jobs;
    (* Fail fast on an unparseable chaos spec instead of aborting
       mid-sweep from inside the pool. *)
    (match Sys.getenv_opt Campaign.Pool.chaos_env with
    | Some spec when !Campaign.Pool.chaos = None -> (
      match Campaign.Pool.chaos_of_string spec with
      | Ok _ -> ()
      | Error message -> usage_error "%s: %s" Campaign.Pool.chaos_env message)
    | _ -> ());
    let grid =
      try
        Campaign.Sweep.grid ~bindings ~seed ~seed_count ~duration ~flows ~rwnd
          ()
      with Invalid_argument message -> usage_error "%s" message
    in
    if resume && no_cache then
      usage_error "--resume needs the result cache (drop --no-cache)";
    let cache =
      if no_cache then None else Some (Campaign.Cache.create ~dir:cache_dir ())
    in
    let sweep_digest = Campaign.Sweep.sweep_digest grid in
    let journal_path = Filename.concat cache_dir "journal.jsonl" in
    let journal =
      match cache with
      | None -> None
      | Some _ ->
        if resume then (
          match
            Campaign.Journal.resume ~path:journal_path ~sweep:sweep_digest
          with
          | Ok (journal, previous) ->
            Printf.eprintf
              "resume: journal records %d settled and %d failed job(s); \
               re-running the rest\n"
              (List.length previous.Campaign.Journal.settled)
              (List.length previous.Campaign.Journal.failed);
            Some journal
          | Error message -> usage_error "cannot resume: %s" message)
        else
          Some
            (Campaign.Journal.start ~path:journal_path ~sweep:sweep_digest
               ~total:(List.length (Campaign.Sweep.jobs_of_grid grid)))
    in
    let policy =
      {
        Campaign.Pool.timeout = (if timeout > 0.0 then Some timeout else None);
        retries;
        backoff;
      }
    in
    let jobs = if jobs = 0 then Campaign.Pool.default_jobs () else jobs in
    let on_progress ~completed ~total =
      if not json then begin
        Printf.eprintf "\rsweep: %d/%d job(s)%s" completed total
          (if completed = total then "\n" else "");
        flush stderr
      end
    in
    (* Graceful shutdown: the first SIGINT/SIGTERM stops the collect
       loop, which SIGKILLs and reaps the children; the journal is
       flushed and a partial summary printed with a conventional
       128+signal exit code. *)
    let interrupted_by = ref None in
    let install signal =
      Sys.signal signal (Sys.Signal_handle (fun _ -> interrupted_by := Some signal))
    in
    let previous_int = install Sys.sigint in
    let previous_term = install Sys.sigterm in
    let outcome =
      Fun.protect
        ~finally:(fun () ->
          Sys.set_signal Sys.sigint previous_int;
          Sys.set_signal Sys.sigterm previous_term;
          Option.iter Campaign.Journal.close journal)
        (fun () ->
          Campaign.Sweep.run ?cache ?journal ~policy
            ~stop:(fun () -> !interrupted_by <> None)
            ~jobs ~on_progress grid)
    in
    if (not json) && outcome.Campaign.Sweep.interrupted then
      prerr_newline ();
    if json then print_string (Campaign.Sweep.report_json outcome)
    else print_string (Campaign.Sweep.report outcome);
    match !interrupted_by with
    | Some signal -> exit (if signal = Sys.sigterm then 143 else 130)
    | None ->
      if outcome.Campaign.Sweep.quarantined <> [] then exit 3
      else if Campaign.Sweep.total_violations outcome > 0 then exit 1
  in
  Term.(
    const run $ axes $ seed_count $ duration $ flows $ rwnd $ jobs $ cache_dir
    $ no_cache $ json $ timeout $ retries $ backoff $ resume $ seed_arg)

let sweep_cmd =
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Run a campaign over the cartesian product of its axes (variants x \
          gateways x topologies x loss rates x ... x seeds) on a supervised \
          pool of persistent forked workers (per-job deadlines, bounded \
          retries, crash quarantine) with an incremental result cache and \
          run journal. Every value is checked before any job runs: a bad \
          value or a duplicate grid point exits 2. Always completes with \
          partial results; exits 3 if any job was quarantined, 1 on \
          auditor violations, 128+signal when interrupted (resume with \
          --resume).")
    sweep_term

(* list / all: the experiment registry *)

let list_cmd =
  Cmd.v
    (Cmd.info "list" ~doc:"List every registered experiment with its synopsis.")
    (report_term (fun () ->
         Stats.Text_table.render ~header:[ "name"; "synopsis" ]
           (List.map
              (fun (e : Experiments.Registry.t) -> [ e.name; e.synopsis ])
              Experiments.Registry.all)))

let all_term =
  let only =
    let doc =
      "Restrict to a comma-separated subset of registry names (see the list \
       command)."
    in
    Arg.(value & opt (some (list ~sep:',' string)) None & info [ "only" ] ~docv:"NAMES" ~doc)
  in
  let run only seed =
    let experiments =
      match only with
      | None -> Experiments.Registry.all
      | Some names ->
        List.map
          (fun name ->
            match Experiments.Registry.find name with
            | Some e -> e
            | None ->
              usage_error "--only %s: unknown experiment; try rr-sim list" name)
          names
    in
    List.iteri
      (fun i e ->
        if i > 0 then print_newline ();
        Printf.printf "-- %s: %s\n\n" e.Experiments.Registry.name
          e.Experiments.Registry.synopsis;
        print_string (e.Experiments.Registry.run ~seed))
      experiments
  in
  Term.(const run $ only $ seed_arg)

let all_cmd =
  Cmd.v
    (Cmd.info "all"
       ~doc:
         "Regenerate every table and figure of the paper (every registered \
          experiment, or a subset via --only).")
    all_term

(* modelcheck: model-vs-measured validation of the modeled variants *)

let modelcheck_term =
  let variants =
    let doc =
      "Comma-separated variants to validate (default: every modeled one)."
    in
    Arg.(
      value
      & opt (list ~sep:',' variant_conv) Experiments.Modelcheck.default_variants
      & info [ "variants" ] ~docv:"V,V,..." ~doc)
  in
  let losses =
    let doc = "Comma-separated uniform loss rates to validate at." in
    Arg.(
      value
      & opt (list ~sep:',' float) Experiments.Modelcheck.default_loss_rates
      & info [ "loss" ] ~docv:"RATES" ~doc)
  in
  let seeds =
    let doc = "Number of seeds averaged per cell (1-5)." in
    Arg.(value & opt int 5 & info [ "seeds" ] ~docv:"N" ~doc)
  in
  let duration =
    let doc = "Per-run simulation length in seconds." in
    Arg.(value & opt float 100.0 & info [ "duration" ] ~docv:"SECONDS" ~doc)
  in
  let rrr_level =
    let doc = "Congestion level the rrr variant (and its model) runs at." in
    Arg.(value & opt float 0.5 & info [ "rrr-level" ] ~docv:"LEVEL" ~doc)
  in
  let check =
    let doc =
      "Exit non-zero if any cell's |deviation| exceeds $(docv) (e.g. 0.15). \
       Without it the report is informational."
    in
    Arg.(value & opt (some float) None & info [ "check" ] ~docv:"TOL" ~doc)
  in
  let run variants losses seeds duration rrr_level check =
    (* Each comparison fails on NaN. The models' domain is 0 < p <= 1. *)
    List.iter
      (fun p ->
        if not (p > 0.0 && p <= 1.0) then
          usage_error "--loss %g: must be within (0, 1]" p)
      losses;
    if not (rrr_level > 0.0 && rrr_level < 1.0) then
      usage_error "--rrr-level %g: must be inside (0, 1)" rrr_level;
    Option.iter
      (fun tol ->
        if not (tol >= 0.0) then usage_error "--check %g: must be >= 0" tol)
      check;
    let all_seeds = [ 3L; 17L; 29L; 101L; 2048L ] in
    if seeds < 1 || seeds > List.length all_seeds then
      usage_error "--seeds %d: must be 1-%d" seeds (List.length all_seeds);
    let seeds = List.filteri (fun i _ -> i < seeds) all_seeds in
    let outcome =
      refusing (fun () ->
          Experiments.Modelcheck.run ~variants ~loss_rates:losses ~seeds
            ~duration ~rrr_level ())
    in
    print_string (Experiments.Modelcheck.report outcome);
    Option.iter
      (fun tolerance ->
        let over = Experiments.Modelcheck.beyond outcome ~tolerance in
        if over <> [] then begin
          Printf.printf "\n%d cell(s) beyond the %.0f%% tolerance:\n%s\n"
            (List.length over) (100.0 *. tolerance)
            (String.concat "\n" over);
          exit 1
        end)
      check
  in
  Term.(
    const run $ variants $ losses $ seeds $ duration
    $ rrr_level $ check)

let modelcheck_cmd =
  Cmd.v
    (Cmd.info "modelcheck"
       ~doc:
         "Validate each modeled variant's measured steady-state window \
          against its own analytical model (Mathis square-root, Relentless \
          1/p, RRR generalised AIMD) on the clean uniform-loss dumbbell.")
    modelcheck_term

(* -- trace: offline tooling for recorded event traces -- *)

let trace_export_term =
  let input =
    let doc = "Binary trace file to convert (as written by --trace-format binary)." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE" ~doc)
  in
  let output =
    let doc = "Write the JSONL to $(docv) instead of standard output." in
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  (* A corrupt trace is refused like any other bad input, and the JSONL
     decoded before the fault is removed from a regular [-o] file (never
     from a device or pipe it names); on standard output it has already
     gone out. *)
  let export input output =
    let convert out_channel =
      try
        In_channel.with_open_bin input (fun in_channel ->
            Audit.Trace.export ~input:in_channel ~output:out_channel)
      with Audit.Trace.Corrupt reason ->
        Option.iter
          (fun path ->
            close_out_noerr out_channel;
            match Unix.stat path with
            | { Unix.st_kind = Unix.S_REG; _ } -> Sys.remove path
            | _ | (exception Unix.Unix_error _) -> ())
          output;
        usage_error "%s: %s" input reason
    in
    match output with
    | Some path ->
      let oc = open_output path in
      convert oc;
      close_out oc
    | None -> convert stdout
  in
  Term.(const export $ input $ output)

let trace_cmd =
  Cmd.group
    (Cmd.info "trace" ~doc:"Offline tooling for recorded event traces.")
    [
      Cmd.v
        (Cmd.info "export"
           ~doc:
             "Convert a binary event trace to JSONL, byte-identical to what \
              --trace-format jsonl would have written during the run.")
        trace_export_term;
    ]

let main_cmd =
  let doc =
    "reproduction of Robust TCP Congestion Recovery (Wang & Shin, ICDCS 2001)"
  in
  (* Top-level [--audit] is a synonym for the [audit] sub-command, so the
     whole-suite invariant sweep is one flag away. *)
  let default =
    let audit =
      let doc = "Run the invariant-audit sweep (same as the audit command)." in
      Arg.(value & flag & info [ "audit" ] ~doc)
    in
    Term.(
      ret
        (const (fun audit seed ->
             if audit then `Ok (audit_sweep seed) else `Help (`Pager, None))
        $ audit $ seed_arg))
  in
  Cmd.group ~default
    (Cmd.info "rr-sim" ~version:"1.0.0" ~doc)
    ([
      fig5_cmd;
      fig6_cmd;
      fig7_cmd;
      table5_cmd;
      ablation_cmd;
      audit_cmd;
      run_cmd;
      sweep_cmd;
      modelcheck_cmd;
      trace_cmd;
      list_cmd;
      all_cmd;
    ]
    @ registry_cmds)

let () = exit (Cmd.eval main_cmd)

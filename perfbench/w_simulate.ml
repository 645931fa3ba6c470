(* simulate: every single-process use of the simulator in one pass —
   the paper-recovery runs (W_paper), a 50k-flow Many_flow run
   (W_many) and the binary-trace round trips of a hostile dumbbell
   (W_replay). One workload that loads every simulator layer lets a
   run last long enough to average the host's slow phases within the
   benchmark's time budget. *)

let measure ~trace ~seed ~seconds =
  let paper = W_paper.prepare ~seed
  and many = W_many.prepare ~seed
  and replay = W_replay.prepare ~seed in
  let counts =
    List.fold_left Scen.add Scen.zero
      [ paper.W_paper.counts; many.W_many.counts; replay.W_replay.counts ]
  in
  let runs = W_paper.runs paper + 1 + W_replay.round_trips in
  (* Each part's program seconds per full pass, for the summary and
     for the per-layer differences. *)
  let paper_s = Harness.samples "paper-recovery"
  and many_s = Harness.samples "many-flow"
  and record_s = Harness.samples "trace record"
  and export_s = Harness.samples "trace export" in
  let plain () =
    let (), p = Harness.program_s (W_paper.plain paper) in
    let (), m = Harness.program_s (W_many.plain many) in
    let r, e = W_replay.plain replay () in
    paper_s := p :: !paper_s;
    many_s := m :: !many_s;
    record_s := r :: !record_s;
    export_s := e :: !export_s
  and setup () =
    W_paper.setup paper ();
    W_many.setup many ();
    W_replay.setup replay ()
  in
  setup ();
  if not trace then
    Harness.end_to_end ~segments:counts.Scen.segments
      (Harness.passes ~seconds ~plain ~setup [])
  else begin
    let traced_s = Harness.samples "traced"
    and unaudited_s = Harness.samples "no-audit"
    and no_trace_s = Harness.samples "no-trace" in
    let dequeued = ref 0 in
    let traced () =
      Harness.traced_pass (fun () ->
          W_paper.traced paper ();
          dequeued := W_many.traced many ();
          W_replay.traced replay ())
    in
    (* The runs the auditor watches, without it: the paper runs and the
       trace recordings. *)
    let no_audit () =
      let (), _, _ =
        Harness.metered (fun () ->
            let (), p = Harness.program_s (W_paper.no_audit paper) in
            let r = W_replay.no_audit replay () in
            unaudited_s := (p +. r) :: !unaudited_s)
      in
      ()
    in
    let t =
      Harness.passes ~seconds ~plain ~setup
        [
          Harness.step traced_s traced;
          no_audit;
          Harness.step no_trace_s (W_replay.no_trace replay);
        ]
    in
    let median = Perfbench_kit.Sample.median in
    let segments = counts.Scen.segments in
    let segs = float_of_int segments in
    let per_seg kind = Harness.self_ns kind /. segs in
    let engine = per_seg Harness.k_engine
    and tap = per_seg Harness.k_tap
    and inject = per_seg Harness.k_emit +. per_seg Harness.k_inject
    and sender = per_seg Harness.k_sender_ack
    and rr = per_seg Harness.k_rr_ack
    and flock_ack = per_seg Harness.k_flock_ack
    and flock_data = per_seg Harness.k_flock_data
    and summary = per_seg Harness.k_summary
    and export = per_seg Harness.k_export in
    let audited = List.map2 ( +. ) !paper_s !record_s in
    let auditor =
      Perfbench_kit.Sample.diff_ns_per ~count:segments ~with_:audited ~without:!unaudited_s
    in
    let events = replay.W_replay.events in
    let events_f = float_of_int events in
    let write =
      Perfbench_kit.Sample.diff_ns_per ~count:events ~with_:!record_s ~without:!no_trace_s
    in
    let traced_ns = median !traced_s *. 1e9 /. segs in
    let runs_f = float_of_int runs in
    [
      ("sim.engine.self_ns_per_seg", engine);
      ("net.link.entry_ns_per_seg", tap);
      ("net.inject_ns_per_seg", inject);
      ("net.link.tx_per_seg", float_of_int (counts.Scen.dequeued + !dequeued) /. segs);
      ("net.queue.drops_per_kseg", 1000.0 *. float_of_int counts.Scen.drops /. segs);
      ("tcp.sender.ack_ns_per_seg", sender);
      ("core.rr.ack_ns_per_seg", rr);
      ("tcp.flock.ack_ns_per_seg", flock_ack);
      ("tcp.flock.data_ns_per_seg", flock_data);
      ( "tcp.acks_per_seg",
        (float_of_int counts.Scen.acks +. Harness.span_count Harness.k_flock_ack) /. segs );
      ("tcp.retx_ratio", float_of_int counts.Scen.retransmits /. segs);
      ("tcp.timeouts_per_kseg", 1000.0 *. float_of_int counts.Scen.timeouts /. segs);
      ("audit.auditor.ns_per_seg", auditor);
      ("audit.auditor.checks_per_seg", float_of_int counts.Scen.checks /. segs);
      ("audit.trace.write_ns_per_event", write);
      ("audit.trace.read_ns_per_event", Harness.self_ns Harness.k_export /. events_f);
      ("audit.trace.bytes_per_event", float_of_int replay.W_replay.bytes /. events_f);
      ("faults.steps_per_run", float_of_int counts.Scen.fault_steps /. runs_f);
      ("stats.summary_ms", Harness.self_ns Harness.k_summary /. 1e6);
      ( "experiments.scenario.self_ns_per_seg",
        traced_ns -. engine -. tap -. inject -. sender -. rr -. flock_ack -. flock_data
        -. summary -. export -. auditor
        -. (write *. events_f /. segs) );
      ("experiments.setup_ms_per_run", median t.Harness.setup *. 1000.0 /. runs_f);
      ("gc.minor_words_per_seg", median t.Harness.words /. segs);
      ("gc.minor_words_per_job", median t.Harness.words /. runs_f);
      ("trace.overhead_ratio", (median !traced_s /. median t.Harness.plain) -. 1.0);
    ]
  end

type spec = { name : string; unit : string }

let spec (name, unit) = { name; unit }

let end_to_end =
  List.map spec [ ("segments_per_s", "1/s"); ("setup_s", "s"); ("peak_rss_mb", "MB") ]

let per_layer =
  List.map spec
    [
      ("sim.engine.self_ns_per_seg", "ns");
      ("net.link.entry_ns_per_seg", "ns");
      ("net.inject_ns_per_seg", "ns");
      ("net.link.tx_per_seg", "count");
      ("net.queue.drops_per_kseg", "count");
      ("tcp.sender.ack_ns_per_seg", "ns");
      ("core.rr.ack_ns_per_seg", "ns");
      ("tcp.flock.ack_ns_per_seg", "ns");
      ("tcp.flock.data_ns_per_seg", "ns");
      ("tcp.acks_per_seg", "count");
      ("tcp.retx_ratio", "ratio");
      ("tcp.timeouts_per_kseg", "count");
      ("audit.auditor.ns_per_seg", "ns");
      ("audit.auditor.checks_per_seg", "count");
      ("audit.trace.write_ns_per_event", "ns");
      ("audit.trace.read_ns_per_event", "ns");
      ("audit.trace.bytes_per_event", "B");
      ("faults.steps_per_run", "count");
      ("stats.summary_ms", "ms");
      ("experiments.scenario.self_ns_per_seg", "ns");
      ("experiments.setup_ms_per_run", "ms");
      ("campaign.job.compute_ms", "ms");
      ("campaign.dispatch_ms_per_job", "ms");
      ("campaign.handoff_ms_per_job", "ms");
      ("campaign.cache.store_us_per_job", "us");
      ("campaign.cache.find_us_per_job", "us");
      ("campaign.digest_us_per_job", "us");
      ("gc.minor_words_per_seg", "count");
      ("gc.minor_words_per_job", "count");
      ("trace.overhead_ratio", "ratio");
    ]

let result_line ~table ~correct ~attempted ~failed values =
  List.iter
    (fun (name, _) ->
      if not (List.exists (fun s -> s.name = name) table) then
        invalid_arg ("Metric.result_line: unknown metric " ^ name))
    values;
  let metric { name; unit } =
    match List.assoc_opt name values with
    | None -> invalid_arg ("Metric.result_line: missing metric " ^ name)
    | Some v when not (Float.is_finite v) ->
      invalid_arg ("Metric.result_line: non-finite " ^ name)
    | Some v -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map metric table))

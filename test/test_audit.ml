(* Auditor tests, in two directions:

   - detection power: deliberately broken components (a LIFO queue, a
     corrupted cwnd) must be flagged;
   - soundness sweeps: seeded runs of the real stack — five variants,
     drop-tail and RED gateways, burst and random drop patterns — must
     produce zero violations while running plenty of checks. *)

let packet ~uid ~seq = Net.Packet.data ~uid ~flow:0 ~seq ~size_bytes:1000 ~born:0.0

(* [enqueue_events tracer ~name n] traces [n] packets accepted by a
   fresh drop-tail queue labelled [name], all at time 0. *)
let enqueue_events tracer ~name n =
  let disc = Net.Droptail.create ~capacity:n () in
  Audit.Trace.attach_queue tracer ~engine:(Sim.Engine.create ()) ~name disc;
  for i = 1 to n do
    ignore (disc.Net.Queue_disc.enqueue (packet ~uid:i ~seq:i) : bool)
  done

let rules auditor =
  List.map (fun v -> v.Audit.Auditor.rule) (Audit.Auditor.violations auditor)

let test_detects_reordering () =
  let engine = Sim.Engine.create () in
  let auditor = Audit.Auditor.create ~engine () in
  (* A LIFO "queue" with honest statistics: only the same-flow ordering
     invariant is broken. *)
  let stack = ref [] in
  let stats = Net.Queue_disc.fresh_stats () in
  let disc =
    Net.Queue_disc.make ~name:"lifo"
      ~enqueue:(fun p ->
        stack := p :: !stack;
        stats.Net.Queue_disc.enqueued <- stats.Net.Queue_disc.enqueued + 1;
        true)
      ~dequeue:(fun () ->
        match !stack with
        | [] -> Net.Packet.none
        | p :: rest ->
          stack := rest;
          stats.Net.Queue_disc.dequeued <- stats.Net.Queue_disc.dequeued + 1;
          p)
      ~length:(fun () -> List.length !stack)
      ~byte_length:(fun () -> 1000 * List.length !stack)
      ~stats ()
  in
  Audit.Auditor.attach_queue auditor ~name:"lifo" disc;
  ignore (disc.Net.Queue_disc.enqueue (packet ~uid:1 ~seq:0) : bool);
  ignore (disc.Net.Queue_disc.enqueue (packet ~uid:2 ~seq:1) : bool);
  ignore (disc.Net.Queue_disc.dequeue () : Net.Packet.t);
  Alcotest.(check bool) "caught" false (Audit.Auditor.ok auditor);
  Alcotest.(check bool) "as a fifo violation" true
    (List.mem "queue-fifo" (rules auditor))

let test_detects_occupancy_leak () =
  let engine = Sim.Engine.create () in
  let auditor = Audit.Auditor.create ~engine () in
  (* A queue that loses every other packet: accepted (and counted) but
     never dequeueable. *)
  let fifo : Net.Packet.t Queue.t = Queue.create () in
  let stats = Net.Queue_disc.fresh_stats () in
  let counter = ref 0 in
  let disc =
    Net.Queue_disc.make ~name:"leaky"
      ~enqueue:(fun p ->
        incr counter;
        if !counter mod 2 = 0 then Queue.push p fifo;
        stats.Net.Queue_disc.enqueued <- stats.Net.Queue_disc.enqueued + 1;
        true)
      ~dequeue:(fun () ->
        if Queue.is_empty fifo then Net.Packet.none else Queue.pop fifo)
      ~length:(fun () -> Queue.length fifo)
      ~byte_length:(fun () -> 1000 * Queue.length fifo)
      ~stats ()
  in
  Audit.Auditor.attach_queue auditor ~name:"leaky" disc;
  ignore (disc.Net.Queue_disc.enqueue (packet ~uid:1 ~seq:0) : bool);
  Alcotest.(check bool) "leak caught" false (Audit.Auditor.ok auditor);
  Alcotest.(check bool) "as conservation" true
    (List.mem "queue-conservation" (rules auditor))

let test_detects_corrupt_cwnd () =
  let h = Harness.make Core.Variant.(create Reno) in
  let engine = Sim.Engine.create () in
  let auditor = Audit.Auditor.create ~engine () in
  Audit.Auditor.attach_sender auditor ~label:"flow 0 (reno)" h.Harness.agent;
  Harness.start h;
  Harness.deliver_ack h 0;
  Alcotest.(check bool) "healthy so far" true (Audit.Auditor.ok auditor);
  (* Corrupt the window below the floor; the next event must trip the
     sender-window rule. *)
  Tcp.Sender_common.set_cwnd (Harness.base h) 0.25;
  Harness.deliver_ack h 2;
  Alcotest.(check bool) "corruption caught" false (Audit.Auditor.ok auditor);
  Alcotest.(check bool) "as sender-window" true
    (List.mem "sender-window" (rules auditor))

let test_finalize_flags_stats_drift () =
  let engine = Sim.Engine.create () in
  let auditor = Audit.Auditor.create ~engine () in
  let fifo : Net.Packet.t Queue.t = Queue.create () in
  let stats = Net.Queue_disc.fresh_stats () in
  let disc =
    Net.Queue_disc.make ~name:"overcounting"
      ~enqueue:(fun p ->
        Queue.push p fifo;
        (* Double-counts accepted packets. *)
        stats.Net.Queue_disc.enqueued <- stats.Net.Queue_disc.enqueued + 2;
        true)
      ~dequeue:(fun () ->
        if Queue.is_empty fifo then Net.Packet.none else Queue.pop fifo)
      ~length:(fun () -> Queue.length fifo)
      ~byte_length:(fun () -> 1000 * Queue.length fifo)
      ~stats ()
  in
  Audit.Auditor.attach_queue auditor ~name:"overcounting" disc;
  ignore (disc.Net.Queue_disc.enqueue (packet ~uid:1 ~seq:0) : bool);
  Audit.Auditor.finalize auditor;
  Alcotest.(check bool) "drift caught at finalize" true
    (List.mem "queue-stats" (rules auditor))

(* -- divergence monitor (observational, Jain cs/9809097) -- *)

let fine_params =
  {
    Tcp.Params.default with
    min_rto = 0.2;
    initial_rto = 0.5;
    max_rto = 8.0;
  }

let test_divergence_trend_rule () =
  (* One clean sample pins srtt at 0.2 s, then the wire goes silent:
     repeated timeouts back the RTO off 0.6 -> 1.2 -> 2.4 -> 4.8 while
     the measured RTT never moves. The observation window must catch the
     ratio running away. *)
  let h = Harness.make ~params:fine_params Core.Variant.(create Newreno) in
  let monitor = Audit.Divergence.create ~engine:h.Harness.engine () in
  Audit.Divergence.attach_sender monitor ~label:"flow 0 (newreno)"
    h.Harness.agent;
  Harness.start h;
  Harness.advance h ~by:0.2;
  Harness.deliver_ack h 0;
  Alcotest.(check bool) "quiet while healthy" true
    (Audit.Divergence.quiet monitor);
  Harness.advance h ~by:20.0;
  Alcotest.(check bool) "divergence caught" true
    (Audit.Divergence.divergence_count monitor >= 1);
  let rules =
    List.map (fun f -> f.Audit.Divergence.rule) (Audit.Divergence.findings monitor)
  in
  Alcotest.(check bool) "rule name" true (List.mem "rto-divergence" rules)

let test_divergence_sync_rule () =
  (* Two flows started together on a dead wire expire their initial RTO
     at the same instant: a synchronized-timeout burst, no RTT estimate
     required. *)
  let engine = Sim.Engine.create () in
  let monitor = Audit.Divergence.create ~engine () in
  let spawn flow =
    let agent =
      Core.Variant.(create Newreno) ~engine ~params:Tcp.Params.default ~flow
        ~emit:(fun (_ : Net.Packet.t) -> ())
        ()
    in
    Audit.Divergence.attach_sender monitor
      ~label:(Printf.sprintf "flow %d" flow)
      agent;
    Tcp.Agent.supply_data agent ~segments:10;
    Tcp.Agent.start agent
  in
  spawn 0;
  spawn 1;
  Sim.Engine.run_until engine ~time:4.0;
  Alcotest.(check bool) "sync burst caught" true
    (Audit.Divergence.sync_burst_count monitor >= 1);
  Alcotest.(check int) "no divergence without an RTT estimate" 0
    (Audit.Divergence.divergence_count monitor)

let test_scenario_divergence_plumbing () =
  let run watch_divergence =
    let config = Net.Dumbbell.paper_config ~flows:1 in
    Experiments.Scenario.run
      (Experiments.Scenario.make ~topology:(Experiments.Scenario.dumbbell config)
         ~flows:[ Experiments.Scenario.flow Core.Variant.Rr ]
         ~params:{ Tcp.Params.default with rwnd = 20 }
         ~seed:7L ~duration:2.0 ~watch_divergence ())
  in
  (match (run false).Experiments.Scenario.divergence with
  | None -> ()
  | Some _ -> Alcotest.fail "monitor attached without watch_divergence");
  match (run true).Experiments.Scenario.divergence with
  | Some monitor ->
    Alcotest.(check bool) "clean short run stays quiet" true
      (Audit.Divergence.quiet monitor)
  | None -> Alcotest.fail "watch_divergence did not attach a monitor"

let test_divergence_under_flaps () =
  (* The acceptance path of the rtodiv experiment: the default Jacobson
     estimator on fine timers, run through the PR-4 link-flap schedule,
     must produce at least one measured finding. *)
  let outcome =
    Experiments.Rto_divergence.run ~estimators:[ Tcp.Rto.Jacobson ]
      ~seeds:[ 7L; 29L ] ()
  in
  Alcotest.(check bool) "flap schedule yields findings" true
    (Experiments.Rto_divergence.findings outcome > 0.0)

(* -- soundness sweeps over the healthy stack -- *)

let sweep_variants =
  Core.Variant.[ Tahoe; Reno; Newreno; Sack; Rr ]

let gateway_of red =
  if red then Net.Dumbbell.Red { capacity = 25; params = Net.Red.paper_params }
  else Net.Dumbbell.Droptail { capacity = 8 }

let run_scenario ~variant ~red ~seed ~forced_drops ~uniform_loss ~ack_loss =
  let config =
    { (Net.Dumbbell.paper_config ~flows:2) with gateway = gateway_of red }
  in
  Experiments.Scenario.run
    (Experiments.Scenario.make ~topology:(Experiments.Scenario.dumbbell config)
       ~flows:[ Experiments.Scenario.flow variant; Experiments.Scenario.flow variant ]
       ~params:{ Tcp.Params.default with rwnd = 20; initial_ssthresh = 16.0 }
       ~seed ~duration:10.0 ~forced_drops ~uniform_loss ~ack_loss ())

let check_clean label t =
  let auditor = t.Experiments.Scenario.auditor in
  Alcotest.(check bool)
    (label ^ ": checks actually ran")
    true
    (Audit.Auditor.checks_run auditor > 1000);
  if not (Audit.Auditor.ok auditor) then
    Alcotest.failf "%s:\n%s" label (Audit.Auditor.report auditor)

let test_sweep_bursts () =
  List.iter
    (fun variant ->
      List.iter
        (fun red ->
          List.iter
            (fun drops ->
              let forced_drops =
                List.init drops (fun i ->
                    { Net.Loss.flow = 0; seq = 33 + i; occurrence = 1 })
              in
              let label =
                Printf.sprintf "%s/%s/burst%d"
                  (Core.Variant.name variant)
                  (if red then "red" else "droptail")
                  drops
              in
              check_clean label
                (run_scenario ~variant ~red ~seed:7L ~forced_drops
                   ~uniform_loss:0.0 ~ack_loss:0.0))
            [ 1; 3; 6 ])
        [ false; true ])
    sweep_variants

let test_sweep_random_loss () =
  List.iter
    (fun variant ->
      List.iter
        (fun red ->
          List.iter
            (fun seed ->
              let label =
                Printf.sprintf "%s/%s/seed%Ld"
                  (Core.Variant.name variant)
                  (if red then "red" else "droptail")
                  seed
              in
              check_clean label
                (run_scenario ~variant ~red ~seed ~forced_drops:[]
                   ~uniform_loss:0.03 ~ack_loss:0.02))
            [ 1L; 2L; 3L ])
        [ false; true ])
    sweep_variants

(* Property form: any drop pattern the generator can dream up, still
   zero violations. *)
let prop_sweep_arbitrary_drops =
  QCheck2.Test.make ~name:"auditor finds no violations on random scenarios"
    ~count:20
    QCheck2.Gen.(
      tup5 (int_range 0 4) bool (int_range 1 10_000)
        (list_size (int_range 0 8) (int_range 10 80))
        (oneofl [ 0.0; 0.01; 0.05 ]))
    (fun (variant_index, red, seed, drop_seqs, uniform_loss) ->
      let variant = List.nth sweep_variants variant_index in
      let forced_drops =
        List.map
          (fun seq -> { Net.Loss.flow = 0; seq; occurrence = 1 })
          drop_seqs
      in
      let t =
        run_scenario ~variant ~red ~seed:(Int64.of_int seed) ~forced_drops
          ~uniform_loss ~ack_loss:0.0
      in
      Audit.Auditor.ok t.Experiments.Scenario.auditor)

let test_trace_shape () =
  let path = Filename.temp_file "rr_trace" ".jsonl" in
  let out = open_out path in
  let config = { (Net.Dumbbell.paper_config ~flows:2) with gateway = gateway_of false } in
  let t =
    Experiments.Scenario.run
      (Experiments.Scenario.make ~topology:(Experiments.Scenario.dumbbell config)
         ~flows:
           [
             Experiments.Scenario.flow Core.Variant.Rr;
             Experiments.Scenario.flow Core.Variant.Rr;
           ]
         ~params:{ Tcp.Params.default with rwnd = 20 }
         ~seed:7L ~duration:5.0 ~uniform_loss:0.02 ~trace_out:out ())
  in
  close_out out;
  Alcotest.(check bool) "run clean" true
    (Audit.Auditor.ok t.Experiments.Scenario.auditor);
  let ic = open_in path in
  let lines = ref 0 in
  let kinds = Hashtbl.create 7 in
  let last_time = ref 0.0 in
  (try
     while true do
       let line = input_line ic in
       incr lines;
       Alcotest.(check bool) "object shape" true
         (String.length line > 2
         && String.get line 0 = '{'
         && String.get line (String.length line - 1) = '}');
       Scanf.sscanf line {|{"t":%f,"ev":"%[a-z_]"|} (fun time ev ->
           Alcotest.(check bool) "time monotone" true (time >= !last_time);
           last_time := time;
           Hashtbl.replace kinds ev ())
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  Alcotest.(check bool) "nonempty" true (!lines > 100);
  List.iter
    (fun kind ->
      Alcotest.(check bool) ("has " ^ kind) true (Hashtbl.mem kinds kind))
    [ "send"; "ack"; "enqueue"; "dequeue"; "drop"; "recovery_enter" ]

(* -- binary trace container: round-trip through the offline exporter -- *)

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec loop i =
    i + n <= h && (String.sub haystack i n = needle || loop (i + 1))
  in
  loop 0

let check_contains what needle haystack =
  if not (contains ~needle haystack) then
    Alcotest.failf "%s: %S not found in trace" what needle

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* A faulted, audited scenario that puts every record kind in the
   stream: link flaps (link_down/link_up/fault_drop with the queued
   backlog dropped), reordering, random data loss and two flows of
   ordinary traffic. *)
let run_traced ~format ~out () =
  let config =
    { (Net.Dumbbell.paper_config ~flows:2) with gateway = gateway_of false }
  in
  let faults =
    match Faults.Spec.of_string "flap:2+0.3,drop,reorder:0.05" with
    | Ok spec -> spec
    | Error message -> Alcotest.failf "faults spec: %s" message
  in
  Experiments.Scenario.run
    (Experiments.Scenario.make
       ~topology:(Experiments.Scenario.dumbbell config)
       ~flows:
         [
           Experiments.Scenario.flow Core.Variant.Rr;
           Experiments.Scenario.flow Core.Variant.Sack;
         ]
       ~params:{ Tcp.Params.default with rwnd = 20 }
       ~seed:7L ~duration:5.0 ~uniform_loss:0.02 ~faults ~trace_out:out
       ~trace_format:format ())

let test_binary_trace_roundtrip () =
  let jsonl_path = Filename.temp_file "rr_trace" ".jsonl" in
  let binary_path = Filename.temp_file "rr_trace" ".rrtb" in
  let run ~format path =
    let out = open_out_bin path in
    let t = run_traced ~format ~out () in
    close_out out;
    Alcotest.(check bool) "faulted run is audited clean" true
      (Audit.Auditor.ok t.Experiments.Scenario.auditor)
  in
  run ~format:`Jsonl jsonl_path;
  run ~format:`Binary binary_path;
  let exported_path = Filename.temp_file "rr_trace" ".export.jsonl" in
  In_channel.with_open_bin binary_path (fun input ->
      Out_channel.with_open_bin exported_path (fun output ->
          Audit.Trace.export ~input ~output));
  let live = read_file jsonl_path in
  let exported = read_file exported_path in
  let binary = read_file binary_path in
  Alcotest.(check bool)
    "exported JSONL is byte-identical to the live stream" true
    (String.equal live exported);
  Alcotest.(check bool) "binary stream is smaller than the JSONL" true
    (String.length binary < String.length live);
  List.iter
    (fun needle -> check_contains "fault event present" needle live)
    [
      "\"ev\":\"link_down\"";
      "\"ev\":\"link_up\"";
      "\"ev\":\"fault_drop\"";
      "\"ev\":\"reorder\"";
      "\"dup\":true";
    ];
  List.iter Sys.remove [ jsonl_path; binary_path; exported_path ]

let test_binary_trace_corruption () =
  let binary_path = Filename.temp_file "rr_trace" ".rrtb" in
  let out = open_out_bin binary_path in
  ignore (run_traced ~format:`Binary ~out () : Experiments.Scenario.t);
  close_out out;
  let data = read_file binary_path in
  Sys.remove binary_path;
  let export_string s =
    let tmp = Filename.temp_file "rr_trace" ".bad" in
    let jsonl = Filename.temp_file "rr_trace" ".jsonl" in
    let oc = open_out_bin tmp in
    output_string oc s;
    close_out oc;
    Fun.protect
      ~finally:(fun () -> List.iter Sys.remove [ tmp; jsonl ])
      (fun () ->
        In_channel.with_open_bin tmp (fun input ->
            Out_channel.with_open_bin jsonl (fun output ->
                Audit.Trace.export ~input ~output));
        read_file jsonl)
  in
  let check_corrupt what s =
    match export_string s with
    | _ -> Alcotest.failf "%s: export accepted a corrupt stream" what
    | exception Audit.Trace.Corrupt _ -> ()
  in
  check_corrupt "bad magic" ("JUNK" ^ data);
  check_corrupt "truncated record" (String.sub data 0 (String.length data - 1));
  check_corrupt "empty file" "";
  (* Varints that reach the sign bit, so a length would decode
     negative: a record length and a strdef string length; and a record
     whose tag, 12, no writer emits. *)
  let negative = String.make 8 '\xff' ^ "\x7f" in
  check_corrupt "negative record length" ("RRTB\x01" ^ negative);
  check_corrupt "negative string length"
    ("RRTB\x01\x0c\x0d\x00" ^ negative ^ "\x00");
  check_corrupt "unknown record tag"
    ("RRTB\x01\x13\x0c" ^ String.make 8 '\x00' ^ "\x00" ^ negative);
  (* A record past 64 KiB is read a chunk at a time: a length of 2^40
     with nothing after it is refused without being allocated, and the
     strdef of a queue named by a 100 kB string exports byte for
     byte. *)
  check_corrupt "huge record length" "RRTB\x01\x80\x80\x80\x80\x80\x20";
  let long_name format =
    let path = Filename.temp_file "rr_trace" ".long" in
    Out_channel.with_open_bin path (fun out ->
        let t = Audit.Trace.create ~format ~out () in
        enqueue_events t ~name:(String.make 100_000 'x') 1;
        Audit.Trace.flush t);
    let bytes = read_file path in
    Sys.remove path;
    bytes
  in
  Alcotest.(check bool)
    "a 100 kB record exports byte-identical" true
    (String.equal (long_name `Jsonl) (export_string (long_name `Binary)));
  (* A healthy stream through the same harness still exports. *)
  ignore (export_string data : string)

(* -- auditor sampling: cheaper checks, still zero false positives -- *)

let test_audit_sampling () =
  let run sample =
    let config =
      { (Net.Dumbbell.paper_config ~flows:2) with gateway = gateway_of false }
    in
    Experiments.Scenario.run
      (Experiments.Scenario.make
         ~topology:(Experiments.Scenario.dumbbell config)
         ~flows:
           [
             Experiments.Scenario.flow Core.Variant.Rr;
             Experiments.Scenario.flow Core.Variant.Rr;
           ]
         ~params:{ Tcp.Params.default with rwnd = 20 }
         ~seed:7L ~duration:10.0 ~uniform_loss:0.03 ~audit_sample:sample ())
  in
  let full = (run 1).Experiments.Scenario.auditor in
  let sampled = (run 8).Experiments.Scenario.auditor in
  Alcotest.(check int) "sampling divisor is recorded" 8
    (Audit.Auditor.sample sampled);
  Alcotest.(check bool) "full stream is clean" true (Audit.Auditor.ok full);
  Alcotest.(check bool) "sampled stream is clean (no false positives)" true
    (Audit.Auditor.ok sampled);
  Alcotest.(check bool) "sampling runs fewer checks" true
    (Audit.Auditor.checks_run sampled < Audit.Auditor.checks_run full);
  Alcotest.(check bool) "sampled checks still ran" true
    (Audit.Auditor.checks_run sampled > 0)

(* -- tracer staging-buffer sizing -- *)

let test_trace_flush_sizing () =
  (match Audit.Trace.create ~flush_at:0 ~out:stdout () with
  | _ -> Alcotest.fail "flush_at 0 must be rejected"
  | exception Invalid_argument _ -> ());
  let emit tracer n = enqueue_events tracer ~name:"probe" n in
  (* A tiny threshold drains to the channel mid-stream, without an
     explicit flush; the 64 KiB default keeps everything staged. *)
  let tiny_path = Filename.temp_file "rr_flush" ".jsonl" in
  let tiny_out = open_out tiny_path in
  let tiny = Audit.Trace.create ~flush_at:64 ~out:tiny_out () in
  emit tiny 20;
  Alcotest.(check bool) "flush_at=64 drains before an explicit flush" true
    (pos_out tiny_out > 0);
  Audit.Trace.flush tiny;
  close_out tiny_out;
  let default_path = Filename.temp_file "rr_flush" ".jsonl" in
  let default_out = open_out default_path in
  let default_tracer = Audit.Trace.create ~out:default_out () in
  emit default_tracer 20;
  Alcotest.(check int) "default threshold stages everything" 0
    (pos_out default_out);
  Audit.Trace.flush default_tracer;
  close_out default_out;
  Alcotest.(check string) "both thresholds write the same bytes"
    (read_file tiny_path) (read_file default_path);
  List.iter Sys.remove [ tiny_path; default_path ]

let suite =
  [
    ( "audit",
      [
        Alcotest.test_case "detects reordering" `Quick test_detects_reordering;
        Alcotest.test_case "detects occupancy leak" `Quick
          test_detects_occupancy_leak;
        Alcotest.test_case "detects corrupt cwnd" `Quick test_detects_corrupt_cwnd;
        Alcotest.test_case "finalize flags stats drift" `Quick
          test_finalize_flags_stats_drift;
        Alcotest.test_case "divergence: trend rule" `Quick
          test_divergence_trend_rule;
        Alcotest.test_case "divergence: sync rule" `Quick
          test_divergence_sync_rule;
        Alcotest.test_case "divergence: scenario plumbing" `Quick
          test_scenario_divergence_plumbing;
        Alcotest.test_case "divergence: findings under flaps" `Quick
          test_divergence_under_flaps;
        Alcotest.test_case "burst sweep clean" `Slow test_sweep_bursts;
        Alcotest.test_case "random-loss sweep clean" `Slow test_sweep_random_loss;
        Qcheck_seed.to_alcotest prop_sweep_arbitrary_drops;
        Alcotest.test_case "trace shape" `Quick test_trace_shape;
        Alcotest.test_case "binary trace round-trips byte-identically" `Quick
          test_binary_trace_roundtrip;
        Alcotest.test_case "binary trace export rejects corruption" `Quick
          test_binary_trace_corruption;
        Alcotest.test_case "auditor sampling" `Quick test_audit_sampling;
        Alcotest.test_case "tracer flush_at sizing" `Quick
          test_trace_flush_sizing;
      ] );
  ]

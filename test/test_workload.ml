(* FTP application model tests. *)

let test_segments_of_bytes () =
  Alcotest.(check int) "exact" 100 (Workload.Ftp.segments_of_bytes ~mss:1000 100_000);
  Alcotest.(check int) "round up" 101 (Workload.Ftp.segments_of_bytes ~mss:1000 100_001);
  Alcotest.(check int) "tiny" 1 (Workload.Ftp.segments_of_bytes ~mss:1000 1);
  Alcotest.check_raises "zero" (Invalid_argument "Ftp.segments_of_bytes: bytes <= 0")
    (fun () -> ignore (Workload.Ftp.segments_of_bytes ~mss:1000 0))

let loopback_agent engine =
  (* Sender and receiver glued back-to-back with no network: data is
     delivered (and acked) instantly via the engine queue. *)
  let agent_cell = ref None in
  let receiver_cell = ref None in
  let agent =
    Core.Variant.(create Newreno) ~engine ~params:Tcp.Params.default ~flow:0
      ~emit:(fun packet ->
        ignore
          (Sim.Engine.schedule_after engine ~delay:0.01 (fun () ->
               match !receiver_cell with
               | Some receiver -> Tcp.Receiver.deliver receiver packet
               | None -> ())))
      ()
  in
  let receiver =
    Tcp.Receiver.create ~engine ~flow:0
      ~emit:(fun packet ->
        ignore
          (Sim.Engine.schedule_after engine ~delay:0.01 (fun () ->
               match !agent_cell with
               | Some agent -> agent.Tcp.Agent.deliver_ack packet
               | None -> ())))
      ()
  in
  agent_cell := Some agent;
  receiver_cell := Some receiver;
  (agent, receiver)

let test_persistent_starts_at () =
  let engine = Sim.Engine.create () in
  let agent, _ = loopback_agent engine in
  Workload.Ftp.persistent ~engine ~agent ~at:2.0;
  Sim.Engine.run_until engine ~time:1.9;
  Alcotest.(check int) "nothing before start" 0
    (Harness.params |> fun _ ->
     agent.Tcp.Agent.base.Tcp.Sender_common.counters.Tcp.Counters.segments_sent);
  Sim.Engine.run_until engine ~time:3.0;
  Alcotest.(check bool) "flowing after start" true
    (agent.Tcp.Agent.base.Tcp.Sender_common.counters.Tcp.Counters.segments_sent > 0)

let test_file_completion () =
  let engine = Sim.Engine.create () in
  let agent, receiver = loopback_agent engine in
  let completion = ref None in
  Workload.Ftp.file ~engine ~agent ~at:1.0 ~bytes:10_000
    ~on_complete:(fun c -> completion := Some c);
  Sim.Engine.run_until engine ~time:60.0;
  (match !completion with
  | Some c ->
    Alcotest.(check (float 1e-9)) "started" 1.0 c.Workload.Ftp.started;
    Alcotest.(check bool) "finished after start" true
      (c.Workload.Ftp.finished > 1.0)
  | None -> Alcotest.fail "transfer never completed");
  Alcotest.(check int) "receiver got everything" 10
    (Tcp.Receiver.next_expected receiver)

let test_supply_data_accumulates () =
  let engine = Sim.Engine.create () in
  let agent, receiver = loopback_agent engine in
  Tcp.Agent.start agent;
  Tcp.Agent.supply_data agent ~segments:3;
  Sim.Engine.run_until engine ~time:5.0;
  Alcotest.(check int) "first batch delivered" 3
    (Tcp.Receiver.next_expected receiver);
  (* A second batch extends the horizon; transfer resumes. *)
  Tcp.Agent.supply_data agent ~segments:2;
  Sim.Engine.run_until engine ~time:10.0;
  Alcotest.(check int) "second batch delivered" 5
    (Tcp.Receiver.next_expected receiver)

let test_supply_data_after_infinite_rejected () =
  let engine = Sim.Engine.create () in
  let agent, _ = loopback_agent engine in
  Tcp.Agent.supply_infinite agent;
  Alcotest.check_raises "mixing sources"
    (Invalid_argument "Agent.supply_data: source already infinite") (fun () ->
      Tcp.Agent.supply_data agent ~segments:5)

(* -- CBR cross-traffic -- *)

let test_cbr_rate_and_window () =
  let engine = Sim.Engine.create () in
  let emissions = ref [] in
  let cbr =
    Workload.Cbr.create ~engine ~flow:3 ~rate_bps:80_000.0 ~packet_bytes:1000
      ~at:1.0 ~until:2.0
      ~emit:(fun p ->
        emissions := (Sim.Engine.now engine, p) :: !emissions)
      ()
  in
  Sim.Engine.run engine;
  (* 80 kbps at 1000 B/packet = 10 packets/s over [1, 2): emissions at
     1.0, 1.1, ..., 1.9. *)
  Alcotest.(check (float 1e-9)) "interval" 0.1 (Workload.Cbr.interval cbr);
  Alcotest.(check int) "ten packets in the window" 10 (Workload.Cbr.sent cbr);
  Alcotest.(check int) "bytes total" 10_000 (Workload.Cbr.bytes_sent cbr);
  let emissions = List.rev !emissions in
  (match emissions with
  | (t0, p0) :: _ ->
    Alcotest.(check (float 1e-9)) "first at start" 1.0 t0;
    Alcotest.(check int) "tagged with the flow id" 3 p0.Net.Packet.flow
  | [] -> Alcotest.fail "no emissions");
  match List.rev emissions with
  | (t_last, _) :: _ ->
    Alcotest.(check bool) "nothing at or after until" true (t_last < 2.0)
  | [] -> assert false

let test_cbr_validation () =
  let engine = Sim.Engine.create () in
  Alcotest.check_raises "rate" (Invalid_argument "Cbr.create: rate_bps <= 0")
    (fun () ->
      ignore
        (Workload.Cbr.create ~engine ~flow:0 ~rate_bps:0.0 ~packet_bytes:1000
           ~at:0.0 ~until:1.0 ~emit:ignore ()))

(* At an infinite rate the interval is 0, and at 1e300 bps it is too
   small to move a clock at 20 s: either way the source would re-emit
   at one instant forever. *)
let test_cbr_interval_advances () =
  let advances rate_bps =
    Workload.Cbr.advances ~rate_bps ~packet_bytes:1000 ~until:20.0
  in
  Alcotest.(check bool) "a paper-scale rate advances" true (advances 200_000.0);
  Alcotest.(check bool) "1e12 bps still advances" true (advances 1e12);
  Alcotest.(check bool) "infinity does not" false (advances Float.infinity);
  Alcotest.(check bool) "1e300 bps does not" false (advances 1e300);
  Alcotest.(check bool) "NaN does not" false (advances Float.nan);
  Alcotest.(check bool) "a zero horizon has room" true
    (Workload.Cbr.advances ~rate_bps:1e300 ~packet_bytes:1000 ~until:0.0);
  let engine = Sim.Engine.create () in
  List.iter
    (fun rate_bps ->
      Alcotest.check_raises
        (Printf.sprintf "create refuses %g bps" rate_bps)
        (Invalid_argument
           "Cbr.create: the packet interval does not advance the clock")
        (fun () ->
          ignore
            (Workload.Cbr.create ~engine ~flow:0 ~rate_bps ~packet_bytes:1000
               ~at:0.0 ~until:1.0 ~emit:ignore ())))
    [ Float.infinity; 1e300 ];
  let cbr =
    Workload.Cbr.create ~engine ~flow:0 ~rate_bps:80_000.0 ~packet_bytes:1000
      ~at:0.0 ~until:0.0 ~emit:ignore ()
  in
  Sim.Engine.run engine;
  Alcotest.(check int) "an empty window sends nothing" 0 (Workload.Cbr.sent cbr)

(* -- Pareto on/off mice -- *)

let mice_fixture ~seed ~profile =
  let engine = Sim.Engine.create () in
  let agent, receiver = loopback_agent engine in
  let mice =
    Workload.Mice.create ~engine ~agent ~rng:(Sim.Rng.create seed) profile
  in
  Sim.Engine.run_until engine ~time:(profile.Workload.Mice.until +. 30.0);
  (mice, agent, receiver)

let short_mice until =
  { Workload.Mice.default with mean_size_bytes = 4_000.0; until }

let test_mice_bursts_and_completions () =
  let mice, _, receiver = mice_fixture ~seed:7L ~profile:(short_mice 20.0) in
  Alcotest.(check bool) "several bursts ran" true (Workload.Mice.bursts mice > 3);
  Alcotest.(check bool) "in-flight burst at until finishes" true
    (Workload.Mice.finished_bursts mice = Workload.Mice.bursts mice);
  Alcotest.(check int) "receiver got every supplied segment"
    (Workload.Mice.segments_supplied mice)
    (Tcp.Receiver.next_expected receiver);
  let completions = Workload.Mice.completions mice in
  Alcotest.(check int) "one completion per finished burst"
    (Workload.Mice.finished_bursts mice)
    (List.length completions);
  List.iter
    (fun c ->
      Alcotest.(check bool) "finished after started" true
        (c.Workload.Mice.finished > c.Workload.Mice.started);
      Alcotest.(check bool) "burst non-empty" true (c.Workload.Mice.segments > 0))
    completions;
  match Workload.Mice.mean_completion_time mice with
  | Some mean -> Alcotest.(check bool) "positive mean" true (mean > 0.0)
  | None -> Alcotest.fail "expected completions"

let test_mice_deterministic () =
  let timeline mice =
    List.map
      (fun c ->
        (c.Workload.Mice.started, c.Workload.Mice.finished,
         c.Workload.Mice.segments))
      (Workload.Mice.completions mice)
  in
  let a, _, _ = mice_fixture ~seed:11L ~profile:(short_mice 15.0) in
  let b, _, _ = mice_fixture ~seed:11L ~profile:(short_mice 15.0) in
  let c, _, _ = mice_fixture ~seed:12L ~profile:(short_mice 15.0) in
  Alcotest.(check bool) "same seed, same burst train" true
    (timeline a = timeline b);
  Alcotest.(check bool) "different seed differs" true (timeline a <> timeline c)

let test_mice_validation () =
  let engine = Sim.Engine.create () in
  let agent, _ = loopback_agent engine in
  let rng = Sim.Rng.create 1L in
  Alcotest.check_raises "shape must give a finite mean"
    (Invalid_argument "Mice.create: Pareto shapes must exceed 1") (fun () ->
      ignore
        (Workload.Mice.create ~engine ~agent ~rng
           { Workload.Mice.default with size_shape = 1.0; until = 10.0 }))

let suite =
  [
    ( "workload",
      [
        Alcotest.test_case "segments_of_bytes" `Quick test_segments_of_bytes;
        Alcotest.test_case "persistent start time" `Quick test_persistent_starts_at;
        Alcotest.test_case "file completion" `Quick test_file_completion;
        Alcotest.test_case "supply accumulates" `Quick test_supply_data_accumulates;
        Alcotest.test_case "source mixing rejected" `Quick
          test_supply_data_after_infinite_rejected;
        Alcotest.test_case "cbr rate and window" `Quick test_cbr_rate_and_window;
        Alcotest.test_case "cbr validation" `Quick test_cbr_validation;
        Alcotest.test_case "cbr interval advances" `Quick
          test_cbr_interval_advances;
        Alcotest.test_case "mice bursts and completions" `Quick
          test_mice_bursts_and_completions;
        Alcotest.test_case "mice deterministic" `Quick test_mice_deterministic;
        Alcotest.test_case "mice validation" `Quick test_mice_validation;
      ] );
  ]

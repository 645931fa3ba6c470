(* Sender-base tests: windowing, send pacing, cwnd growth, RTT
   sampling, go-back-N timeout behaviour, completion. *)

open Tcp.Sender_common

let make ?params () = Harness.make ?params Core.Variant.(create Newreno)

let test_initial_send () =
  let h = make () in
  Harness.start h;
  (* initial cwnd 1: exactly one segment goes out. *)
  Alcotest.(check (list int)) "one segment" [ 0 ] (Harness.sent_seqs h);
  Alcotest.(check int) "t_seqno" 1 (Harness.base h).t_seqno

let test_slow_start_growth () =
  let h = make () in
  Harness.start h;
  ignore (Harness.sent h);
  Harness.deliver_ack h 0;
  Alcotest.(check (list int)) "cwnd 2 sends 2" [ 1; 2 ] (Harness.sent_seqs h);
  Harness.deliver_ack h 1;
  Harness.deliver_ack h 2;
  (* Two ACKs: cwnd 4: two new per ack. *)
  Alcotest.(check (list int)) "cwnd 4" [ 3; 4; 5; 6 ] (Harness.sent_seqs h)

let test_congestion_avoidance_growth () =
  let params = { Harness.params with Tcp.Params.initial_ssthresh = 2.0 } in
  let h = make ~params () in
  Harness.start h;
  ignore (Harness.sent h);
  Harness.deliver_ack h 0;
  let cwnd_before = cwnd (Harness.base h) in
  Harness.deliver_ack h 1;
  let cwnd_after = cwnd (Harness.base h) in
  Alcotest.(check bool)
    (Printf.sprintf "linear growth %.3f -> %.3f" cwnd_before cwnd_after)
    true
    (cwnd_after -. cwnd_before < 1.0 /. cwnd_before +. 1e-9)

let test_rwnd_caps_window () =
  let params = { Harness.params with Tcp.Params.rwnd = 4 } in
  let h = make ~params () in
  Harness.open_window h ~target:20;
  Alcotest.(check bool) "window capped" true (window (Harness.base h) <= 4.0)

let test_max_burst () =
  let params = { Harness.params with Tcp.Params.max_burst = 2 } in
  let h = make ~params () in
  Harness.start h;
  ignore (Harness.sent h);
  (* Grow cwnd big, then watch a single ACK release at most 2. *)
  for ackno = 0 to 5 do
    Harness.deliver_ack h ackno
  done;
  ignore (Harness.sent h);
  Harness.deliver_ack h 6;
  Alcotest.(check bool) "burst capped at 2" true
    (List.length (Harness.sent_seqs h) <= 2)

let test_app_limited () =
  let h = make () in
  Harness.start ~segments:2 h;
  Alcotest.(check (list int)) "first" [ 0 ] (Harness.sent_seqs h);
  Harness.deliver_ack h 0;
  Alcotest.(check (list int)) "second and stop" [ 1 ] (Harness.sent_seqs h);
  Harness.deliver_ack h 1;
  Alcotest.(check (list int)) "no data left" [] (Harness.sent_seqs h)

let test_completion_callback () =
  let h = make () in
  let completed = ref false in
  (Harness.base h).on_complete <- (fun () -> completed := true);
  Harness.start ~segments:2 h;
  Harness.deliver_ack h 0;
  Alcotest.(check bool) "not yet" false !completed;
  Harness.deliver_ack h 1;
  Alcotest.(check bool) "fired" true !completed

let test_rtt_sampling () =
  let h = make () in
  Harness.start h;
  Harness.advance h ~by:0.25;
  Harness.deliver_ack h 0;
  match Tcp.Rto.srtt (Harness.base h).rto with
  | Some srtt -> Alcotest.(check (float 1e-9)) "srtt = delay" 0.25 srtt
  | None -> Alcotest.fail "no sample"

let test_timeout_go_back_n () =
  let h = make () in
  Harness.open_window h ~target:10;
  ignore (Harness.sent h);
  let before = cwnd (Harness.base h) in
  Alcotest.(check bool) "window grew" true (before > 1.0);
  (* Nothing comes back: the initial 3 s RTO fires exactly once within
     4 s (the backed-off second expiry would be at 9 s). *)
  Harness.advance h ~by:4.0;
  let b = Harness.base h in
  Alcotest.(check int) "timeout counted" 1 b.counters.Tcp.Counters.timeouts;
  Alcotest.(check (float 1e-9)) "cwnd collapsed" 1.0 (cwnd b);
  Alcotest.(check bool) "ssthresh halved" true ((ssthresh b) <= before /. 2.0 +. 1e-9);
  (match Harness.sent h with
  | { seq; retx = true; _ } :: _ -> Alcotest.(check int) "resends una+1" (b.una + 1) seq
  | _ -> Alcotest.fail "expected retransmission");
  Alcotest.(check int) "recover_mark set" b.maxseq b.recover_mark

let test_timeout_backoff_doubles () =
  let h = make () in
  Harness.start h;
  ignore (Harness.sent h);
  Harness.advance h ~by:100.0;
  let b = Harness.base h in
  Alcotest.(check bool)
    (Printf.sprintf "%d repeated timeouts back off" b.counters.Tcp.Counters.timeouts)
    true
    (b.counters.Tcp.Counters.timeouts >= 3
    && b.counters.Tcp.Counters.timeouts <= 8)

let test_una_overtake_clamps_t_seqno () =
  let h = make () in
  Harness.open_window h ~target:10;
  ignore (Harness.sent h);
  let b = Harness.base h in
  (* Roll back as a timeout would, then deliver a big cumulative ACK. *)
  b.t_seqno <- b.una + 1;
  Harness.deliver_ack h (b.maxseq - 1);
  Alcotest.(check bool) "t_seqno >= una+1" true (b.t_seqno >= b.una + 1)

let test_limited_transmit () =
  let params = { Harness.params with Tcp.Params.limited_transmit = true } in
  let h = make ~params () in
  Harness.open_window h ~target:10;
  ignore (Harness.sent h);
  (* First two dupacks each release one new segment; the third triggers
     fast retransmit instead. *)
  Harness.dupack h;
  (match Harness.sent h with
  | [ { seq = 10; retx = false; _ } ] -> ()
  | _ -> Alcotest.fail "expected one new segment on 1st dupack");
  Harness.dupack h;
  (match Harness.sent h with
  | [ { seq = 11; retx = false; _ } ] -> ()
  | _ -> Alcotest.fail "expected one new segment on 2nd dupack");
  Harness.dupack h;
  match Harness.sent h with
  | { retx = true; _ } :: _ -> ()
  | _ -> Alcotest.fail "expected fast retransmit on 3rd dupack"

let test_limited_transmit_off_by_default () =
  let h = make () in
  Harness.open_window h ~target:10;
  ignore (Harness.sent h);
  Harness.dupack h;
  Harness.dupack h;
  Alcotest.(check (list int)) "nothing sent" [] (Harness.sent_seqs h)

let test_smooth_start () =
  let params =
    {
      Harness.params with
      Tcp.Params.initial_ssthresh = 8.0;
      smooth_start = true;
    }
  in
  let h = make ~params () in
  Harness.start h;
  ignore (Harness.sent h);
  let b = Harness.base h in
  (* Below ssthresh/2: full exponential growth. *)
  Harness.deliver_ack h 0;
  Alcotest.(check (float 1e-9)) "full growth below half" 2.0 (cwnd b);
  Harness.deliver_ack h 1;
  Harness.deliver_ack h 2;
  Alcotest.(check (float 1e-9)) "at half" 4.0 (cwnd b);
  (* From ssthresh/2 = 4 onward: half-rate growth. *)
  Harness.deliver_ack h 3;
  Alcotest.(check (float 1e-9)) "damped growth" 4.5 (cwnd b)

let test_karn_rule () =
  let h = make () in
  Harness.start h;
  ignore (Harness.sent h);
  let b = Harness.base h in
  Alcotest.(check bool) "segment timed" true (b.timed <> None);
  (* Retransmit the timed segment: the timing must be cancelled. *)
  send_segment b ~seq:0 ~retx:true;
  Alcotest.(check bool) "timing cancelled" true (b.timed = None);
  (* The crux of Karn's rule: the ACK of that retransmitted segment must
     NOT become an RTT sample — it is ambiguous which transmission it
     acknowledges, and timing it would poison every estimator the RTO
     can run. *)
  Harness.advance h ~by:0.5;
  Harness.deliver_ack h 0;
  Alcotest.(check bool) "ambiguous ACK yields no sample" true
    (Tcp.Rto.srtt b.rto = None)

let test_karn_rule_unrelated_retransmit () =
  (* Retransmitting a segment other than the timed one must leave the
     timing armed: Karn's rule only disqualifies the ambiguous
     measurement, not the whole window. *)
  let h = make () in
  Harness.open_window h ~target:4;
  ignore (Harness.sent h);
  let b = Harness.base h in
  (match b.timed with
  | Some (seq, _) -> Alcotest.(check int) "segment 0 is the timed one" 0 seq
  | None -> Alcotest.fail "expected a timed segment");
  send_segment b ~seq:2 ~retx:true;
  Alcotest.(check bool) "timing survives" true (b.timed <> None);
  Harness.advance h ~by:0.25;
  Harness.deliver_ack h 0;
  match Tcp.Rto.srtt b.rto with
  | Some srtt -> Alcotest.(check (float 1e-9)) "clean sample taken" 0.25 srtt
  | None -> Alcotest.fail "expected an RTT sample"

let test_multicast_hooks () =
  (* Several observers on one sender: all of them see every event. The
     old single-slot hooks silently dropped all but the last subscriber
     (the harness already takes one slot here). *)
  let h = make () in
  let sends_a = ref 0 and sends_b = ref 0 and acks = ref 0 in
  let base = Harness.base h in
  Tcp.Sender_common.on_send base (fun ~time:_ ~seq:_ ~retx:_ -> incr sends_a);
  Tcp.Sender_common.on_send base (fun ~time:_ ~seq:_ ~retx:_ -> incr sends_b);
  Tcp.Sender_common.on_ack base (fun ~time:_ ~ackno:_ -> incr acks);
  Harness.start h;
  Harness.deliver_ack h 0;
  let harness_seen = List.length (Harness.sent_seqs h) in
  Alcotest.(check bool) "harness subscriber still live" true (harness_seen > 0);
  Alcotest.(check int) "first subscriber" harness_seen !sends_a;
  Alcotest.(check int) "second subscriber" harness_seen !sends_b;
  Alcotest.(check int) "ack subscriber" 1 !acks

let suite =
  [
    ( "sender_common",
      [
        Alcotest.test_case "initial send" `Quick test_initial_send;
        Alcotest.test_case "slow start" `Quick test_slow_start_growth;
        Alcotest.test_case "congestion avoidance" `Quick
          test_congestion_avoidance_growth;
        Alcotest.test_case "rwnd cap" `Quick test_rwnd_caps_window;
        Alcotest.test_case "max burst" `Quick test_max_burst;
        Alcotest.test_case "app limited" `Quick test_app_limited;
        Alcotest.test_case "completion" `Quick test_completion_callback;
        Alcotest.test_case "rtt sampling" `Quick test_rtt_sampling;
        Alcotest.test_case "timeout go-back-n" `Quick test_timeout_go_back_n;
        Alcotest.test_case "timeout backoff" `Quick test_timeout_backoff_doubles;
        Alcotest.test_case "t_seqno clamp" `Quick test_una_overtake_clamps_t_seqno;
        Alcotest.test_case "limited transmit" `Quick test_limited_transmit;
        Alcotest.test_case "limited transmit default off" `Quick
          test_limited_transmit_off_by_default;
        Alcotest.test_case "smooth start" `Quick test_smooth_start;
        Alcotest.test_case "karn rule" `Quick test_karn_rule;
        Alcotest.test_case "karn rule: unrelated retransmit" `Quick
          test_karn_rule_unrelated_retransmit;
        Alcotest.test_case "multicast hooks" `Quick test_multicast_hooks;
      ] );
  ]

(* White-box tests for the baseline congestion-control variants, driven
   through the scripted harness: each test scripts a window, a loss and
   the returning ACK stream, then checks the variant's documented
   reaction. *)

open Tcp.Sender_common

(* Common preamble: grow the window to 20 sent segments (una = 12 after
   open_window acks everything below t_seqno), then pretend segment
   una+1 was lost and deliver three dup ACKs. *)
let with_loss create =
  let h = Harness.make create in
  Harness.open_window h ~target:20;
  ignore (Harness.sent h);
  h

(* -- Tahoe -- *)

let test_tahoe_fast_retransmit () =
  let h = with_loss Core.Variant.(create Tahoe) in
  let b = Harness.base h in
  let window_before = window b in
  let una = b.una in
  Harness.dupacks h 3;
  let resent = Harness.sent h in
  (match resent with
  | { seq; retx = true; _ } :: _ ->
    Alcotest.(check int) "retransmits the hole" (una + 1) seq
  | _ -> Alcotest.fail "no fast retransmit");
  Alcotest.(check (float 1e-9)) "cwnd collapses to 1" 1.0 (cwnd b);
  Alcotest.(check bool) "ssthresh = win/2" true
    (Float.abs ((ssthresh b) -. Float.max (window_before /. 2.0) 2.0) < 1e-9);
  Alcotest.(check int) "no timeout involved" 0 b.counters.Tcp.Counters.timeouts

let test_tahoe_slow_start_after_loss () =
  let h = with_loss Core.Variant.(create Tahoe) in
  let b = Harness.base h in
  let una = b.una in
  Harness.dupacks h 3;
  ignore (Harness.sent h);
  (* The retransmission fills the hole; receiver had buffered the rest. *)
  Harness.deliver_ack h (una + 1);
  Alcotest.(check (float 1e-9)) "slow start growth" 2.0 (cwnd b)

let test_tahoe_two_dupacks_no_action () =
  let h = with_loss Core.Variant.(create Tahoe) in
  let b = Harness.base h in
  let cwnd_before = cwnd b in
  Harness.dupacks h 2;
  Alcotest.(check (list int)) "nothing sent" [] (Harness.sent_seqs h);
  Alcotest.(check (float 1e-9)) "cwnd unchanged" cwnd_before (cwnd b)

let test_tahoe_bugfix_guard () =
  let h = with_loss Core.Variant.(create Tahoe) in
  let b = Harness.base h in
  Harness.dupacks h 3;
  ignore (Harness.sent h);
  let fast_retx = b.counters.Tcp.Counters.fast_retransmits in
  (* More dupacks at the same una: no second fast retransmit. *)
  Harness.dupacks h 5;
  Alcotest.(check int) "no re-trigger" fast_retx
    b.counters.Tcp.Counters.fast_retransmits

(* -- Reno -- *)

let test_reno_fast_recovery_inflation () =
  let h = with_loss Core.Variant.(create Reno) in
  let b = Harness.base h in
  let window_before = window b in
  Harness.dupacks h 3;
  ignore (Harness.sent h);
  let halved = Float.max (window_before /. 2.0) 2.0 in
  Alcotest.(check (float 1e-9)) "cwnd = ssthresh + 3" (halved +. 3.0) (cwnd b);
  Alcotest.(check bool) "in recovery" true (b.phase = Recovery);
  (* Each further dup ACK inflates by one. *)
  Harness.dupack h;
  Alcotest.(check (float 1e-9)) "inflated" (halved +. 4.0) (cwnd b)

let test_reno_partial_ack_exits () =
  let h = with_loss Core.Variant.(create Reno) in
  let b = Harness.base h in
  let una = b.una in
  Harness.dupacks h 3;
  (* A partial ACK (one hole filled, more remain) already deflates and
     leaves recovery: Reno's multi-loss weakness. *)
  Harness.deliver_ack h (una + 2);
  Alcotest.(check bool) "left recovery" true (b.phase <> Recovery);
  Alcotest.(check (float 1e-9)) "deflated to ssthresh+growth" (cwnd b) (cwnd b);
  Alcotest.(check bool) "cwnd near ssthresh" true
    ((cwnd b) <= (ssthresh b) +. 1.0 +. 1e-9)

(* -- New-Reno -- *)

let newreno_entered h =
  let b = Harness.base h in
  Harness.dupacks h 3;
  let sent = Harness.sent h in
  (b, sent)

let test_newreno_stays_in_recovery () =
  let h = with_loss Core.Variant.(create Newreno) in
  let b, _ = newreno_entered h in
  let una = b.una in
  (* Partial ACK: still in recovery, and the next hole goes out at once. *)
  Harness.deliver_ack h (una + 2);
  Alcotest.(check bool) "still recovering" true (b.phase = Recovery);
  (match Harness.sent h with
  | { seq; retx = true; _ } :: _ ->
    Alcotest.(check int) "next hole retransmitted" (una + 3) seq
  | _ -> Alcotest.fail "expected hole retransmission")

let test_newreno_full_ack_exits () =
  let h = with_loss Core.Variant.(create Newreno) in
  let b, _ = newreno_entered h in
  let recover = b.maxseq in
  Harness.deliver_ack h recover;
  Alcotest.(check bool) "recovery over" true (b.phase <> Recovery);
  Alcotest.(check (float 1e-9)) "cwnd = ssthresh" (ssthresh b) (cwnd b)

let test_newreno_sends_on_dupacks_in_recovery () =
  let h = with_loss Core.Variant.(create Newreno) in
  let b, _ = newreno_entered h in
  (* Enough inflation lets new data out roughly one per two dupacks. *)
  Harness.dupacks h 8;
  let fresh = List.filter (fun s -> not s.Harness.retx) (Harness.sent h) in
  Alcotest.(check bool)
    (Printf.sprintf "%d new segments for 8 dupacks" (List.length fresh))
    true
    (List.length fresh >= 1 && List.length fresh <= 5);
  Alcotest.(check bool) "still in recovery" true (b.phase = Recovery)

(* -- SACK -- *)

let test_sack_wants_sack () =
  let h = Harness.make Core.Variant.(create Sack) in
  Alcotest.(check bool) "receiver must generate sacks" true
    h.Harness.agent.Tcp.Agent.wants_sack

let test_sack_retransmits_holes_first () =
  let h = with_loss Core.Variant.(create Sack) in
  let b = Harness.base h in
  let una = b.una in
  (* Receiver holds everything except una+1 and una+4. *)
  let blocks = [ (una + 2, una + 4); (una + 5, b.maxseq + 1) ] in
  Harness.dupacks ~sack:blocks h 3;
  let resent = List.filter (fun s -> s.Harness.retx) (Harness.sent h) in
  (match resent with
  | { seq; _ } :: _ -> Alcotest.(check int) "first hole" (una + 1) seq
  | [] -> Alcotest.fail "no retransmission");
  (* Drain the pipe with dupacks until the second hole goes out; it must
     go out before any new data. *)
  Harness.dupacks ~sack:blocks h 10;
  let sends = Harness.sent h in
  let hole2_sent = List.exists (fun s -> s.Harness.seq = una + 4) sends in
  Alcotest.(check bool) "second hole retransmitted" true hole2_sent;
  List.iter
    (fun s ->
      if not s.Harness.retx then
        Alcotest.(check bool) "new data only beyond maxseq" true
          (s.Harness.seq > una + 4))
    sends

let test_sack_no_rtx_of_sacked_data () =
  let h = with_loss Core.Variant.(create Sack) in
  let b = Harness.base h in
  let una = b.una in
  let blocks = [ (una + 2, b.maxseq + 1) ] in
  Harness.dupacks ~sack:blocks h 13;
  let resent = List.filter (fun s -> s.Harness.retx) (Harness.sent h) in
  Alcotest.(check (list int)) "only the hole" [ una + 1 ]
    (List.map (fun s -> s.Harness.seq) resent)

let test_sack_exit_at_recover () =
  let h = with_loss Core.Variant.(create Sack) in
  let b = Harness.base h in
  let una = b.una in
  let recover = b.maxseq in
  Harness.dupacks ~sack:[ (una + 2, recover + 1) ] h 3;
  Harness.deliver_ack h recover;
  Alcotest.(check bool) "recovery over" true (b.phase <> Recovery);
  Alcotest.(check (float 1e-9)) "cwnd = ssthresh" (ssthresh b) (cwnd b)

let test_sack_pipe_decrement_on_partial () =
  let h = with_loss Core.Variant.(create Sack) in
  let b = Harness.base h in
  let una = b.una in
  (* Two holes: una+1 and una+3. *)
  let blocks = [ (una + 2, una + 3); (una + 4, b.maxseq + 1) ] in
  Harness.dupacks ~sack:blocks h 3;
  ignore (Harness.sent h);
  (* Partial ACK for the first hole keeps recovery open. *)
  Harness.deliver_ack ~sack:[ (una + 4, b.maxseq + 1) ] h (una + 2);
  Alcotest.(check bool) "still recovering" true (b.phase = Recovery)

(* -- FACK -- *)

let test_fack_triggers_on_forward_evidence () =
  let h = with_loss Core.Variant.(create Fack) in
  let b = Harness.base h in
  let una = b.una in
  (* One duplicate ACK whose SACK block shows 8 segments beyond the
     hole already arrived: FACK enters recovery at once, without
     waiting for three duplicates. *)
  Harness.dupack ~sack:[ (una + 2, una + 10) ] h;
  Alcotest.(check bool) "recovery entered" true (b.phase = Recovery);
  let resent = List.filter (fun s -> s.Harness.retx) (Harness.sent h) in
  (match resent with
  | { seq; _ } :: _ -> Alcotest.(check int) "hole resent" (una + 1) seq
  | [] -> Alcotest.fail "no retransmission")

let test_fack_no_trigger_below_threshold () =
  let h = with_loss Core.Variant.(create Fack) in
  let b = Harness.base h in
  let una = b.una in
  (* Only 2 segments beyond the hole: neither trigger condition met. *)
  Harness.dupack ~sack:[ (una + 2, una + 4) ] h;
  Alcotest.(check bool) "no recovery yet" true (b.phase <> Recovery)

let test_fack_holes_before_new_data () =
  let h = with_loss Core.Variant.(create Fack) in
  let b = Harness.base h in
  let una = b.una in
  (* Two holes: una+1 and una+5; everything else up to maxseq held. *)
  let blocks = [ (una + 2, una + 5); (una + 6, b.maxseq + 1) ] in
  Harness.dupack ~sack:blocks h;
  let sends = Harness.sent h in
  let resent = List.filter (fun s -> s.Harness.retx) sends in
  Alcotest.(check (list int)) "both holes, in order" [ una + 1; una + 5 ]
    (List.map (fun s -> s.Harness.seq) resent);
  List.iter
    (fun s ->
      if not s.Harness.retx then
        Alcotest.(check bool) "new data beyond maxseq only" true
          (s.Harness.seq > b.una + 5))
    sends

let test_fack_exit_at_recover () =
  let h = with_loss Core.Variant.(create Fack) in
  let b = Harness.base h in
  let una = b.una in
  let recover = b.maxseq in
  Harness.dupack ~sack:[ (una + 2, recover + 1) ] h;
  Alcotest.(check bool) "in recovery" true (b.phase = Recovery);
  Harness.deliver_ack h recover;
  Alcotest.(check bool) "out of recovery" true (b.phase <> Recovery);
  Alcotest.(check (float 1e-9)) "cwnd = ssthresh" (ssthresh b) (cwnd b)

(* -- timeout during recovery (all recovery-capable variants) -- *)

let test_timeout_during_recovery_resets create name =
  let h = with_loss create in
  let b = Harness.base h in
  Harness.dupacks h 3;
  ignore (Harness.sent h);
  (* No ACKs come back at all: the RTO must clear the recovery state
     and restart in slow start. *)
  Harness.advance h ~by:4.0;
  Alcotest.(check bool) (name ^ " left recovery") true (b.phase = Slow_start);
  Alcotest.(check (float 1e-9)) (name ^ " cwnd reset") 1.0 (cwnd b);
  Alcotest.(check bool) (name ^ " timeout counted") true
    (b.counters.Tcp.Counters.timeouts >= 1);
  (* Recovery must work again afterwards: deliver everything, lose one
     more segment, and watch fast retransmit re-trigger. *)
  Harness.deliver_ack h b.maxseq;
  ignore (Harness.sent h);
  let fast_before = b.counters.Tcp.Counters.fast_retransmits in
  ignore (Harness.sent h);
  Harness.dupacks h 3;
  Alcotest.(check bool) (name ^ " recovery re-arms") true
    (b.counters.Tcp.Counters.fast_retransmits >= fast_before)

let test_newreno_timeout_during_recovery () =
  test_timeout_during_recovery_resets Core.Variant.(create Newreno) "newreno"

let test_sack_timeout_during_recovery () =
  test_timeout_during_recovery_resets Core.Variant.(create Sack) "sack"

let test_reno_timeout_during_recovery () =
  test_timeout_during_recovery_resets Core.Variant.(create Reno) "reno"

(* -- Relentless -- *)

let test_relentless_exact_decrease () =
  let h = with_loss Core.Variant.(create Relentless) in
  let b = Harness.base h in
  let window_before = window b in
  let una = b.una in
  Harness.dupacks h 3;
  (match Harness.sent h with
  | { seq; retx = true; _ } :: _ ->
    Alcotest.(check int) "retransmits the hole" (una + 1) seq
  | _ -> Alcotest.fail "no fast retransmit");
  (* One loss known so far: the window comes down by exactly one
     segment, not by half. *)
  Alcotest.(check (float 1e-9)) "ssthresh = W - 1" (window_before -. 1.0)
    (ssthresh b);
  Alcotest.(check (float 1e-9)) "cwnd = W - 1, inflated by 3"
    (window_before +. 2.0) (cwnd b);
  Harness.dupack h;
  Alcotest.(check (float 1e-9)) "further dupacks inflate"
    (window_before +. 3.0) (cwnd b)

let test_relentless_full_ack_exit_window () =
  let h = with_loss Core.Variant.(create Relentless) in
  let b = Harness.base h in
  let window_before = window b in
  Harness.dupacks h 3;
  Harness.deliver_ack h b.maxseq;
  Alcotest.(check bool) "recovery over" true (b.phase <> Recovery);
  Alcotest.(check (float 1e-9)) "exit at W - 1 after a single loss"
    (window_before -. 1.0) (cwnd b)

let test_relentless_partial_acks_subtract () =
  let h = with_loss Core.Variant.(create Relentless) in
  let b = Harness.base h in
  let window_before = window b in
  let una = b.una in
  Harness.dupacks h 3;
  ignore (Harness.sent h);
  (* Each partial ACK reveals one more repaired hole; each subtracts
     exactly one more segment from the eventual exit window. *)
  Harness.deliver_ack h (una + 2);
  Alcotest.(check bool) "still recovering" true (b.phase = Recovery);
  (match Harness.sent h with
  | { seq; retx = true; _ } :: _ ->
    Alcotest.(check int) "next hole retransmitted" (una + 3) seq
  | _ -> Alcotest.fail "expected hole retransmission");
  Harness.deliver_ack h (una + 4);
  Alcotest.(check bool) "still recovering after 2nd partial" true
    (b.phase = Recovery);
  Harness.deliver_ack h b.maxseq;
  Alcotest.(check bool) "full ACK exits" true (b.phase <> Recovery);
  Alcotest.(check (float 1e-9)) "exit at W - 3 after three losses"
    (window_before -. 3.0) (cwnd b)

(* -- RRR -- *)

let test_rrr_half_level_matches_newreno () =
  (* One machine runs both rules: RRR cuts to (1 - level) * W with the
     level read from the parameters, New-Reno is the same rule at 0.5.
     So RRR at the default level must act as New-Reno on any script,
     and the level must reach the RRR rule alone. *)
  let trace ~level variant =
    let params = { Harness.params with Tcp.Params.rrr_level = level } in
    let h = Harness.make ~params (Core.Variant.create variant) in
    Harness.open_window h ~target:20;
    ignore (Harness.sent h);
    let b = Harness.base h in
    let una = b.una in
    let log = ref [] in
    let snap () = log := ((cwnd b), (ssthresh b), Harness.sent_seqs h) :: !log in
    Harness.dupacks h 3;
    snap ();
    Harness.deliver_ack h (una + 2);
    snap ();
    Harness.dupacks h 2;
    snap ();
    Harness.deliver_ack h b.maxseq;
    snap ();
    List.rev !log
  in
  let same what expected actual =
    List.iter2
      (fun (c1, s1, q1) (c2, s2, q2) ->
        Alcotest.(check (float 1e-9)) (what ^ ": cwnd") c1 c2;
        Alcotest.(check (float 1e-9)) (what ^ ": ssthresh") s1 s2;
        Alcotest.(check (list int)) (what ^ ": sends") q1 q2)
      expected actual
  in
  let newreno = trace ~level:0.5 Core.Variant.Newreno in
  same "rrr at 0.5 matches newreno" newreno (trace ~level:0.5 Core.Variant.Rrr);
  same "newreno ignores the level" newreno
    (trace ~level:0.2 Core.Variant.Newreno);
  Alcotest.(check bool) "the level reaches rrr" true
    (trace ~level:0.2 Core.Variant.Rrr <> newreno)

let test_rrr_custom_level_backoff () =
  let params = { Harness.params with Tcp.Params.rrr_level = 0.2 } in
  let h = Harness.make ~params Core.Variant.(create Rrr) in
  Harness.open_window h ~target:20;
  ignore (Harness.sent h);
  let b = Harness.base h in
  let w = window b in
  Harness.dupacks h 3;
  Alcotest.(check (float 1e-9)) "ssthresh = (1 - 0.2) W" (0.8 *. w) (ssthresh b);
  Alcotest.(check (float 1e-9)) "cwnd = (1 - 0.2) W, inflated by 3"
    ((0.8 *. w) +. 3.0) (cwnd b);
  Harness.deliver_ack h b.maxseq;
  Alcotest.(check bool) "recovery over" true (b.phase <> Recovery);
  Alcotest.(check (float 1e-9)) "exit at (1 - 0.2) W" (0.8 *. w) (cwnd b)

let test_rrr_timeout_takes_level () =
  let params = { Harness.params with Tcp.Params.rrr_level = 0.2 } in
  let h = Harness.make ~params Core.Variant.(create Rrr) in
  Harness.open_window h ~target:20;
  ignore (Harness.sent h);
  let b = Harness.base h in
  let w = window b in
  (* No ACKs at all: the RTO fires, and ssthresh takes the same
     relative reduction instead of the standard half-cut. *)
  Harness.advance h ~by:4.0;
  Alcotest.(check bool) "timeout fired" true
    (b.counters.Tcp.Counters.timeouts >= 1);
  Alcotest.(check (float 1e-9)) "ssthresh = (1 - 0.2) W after RTO"
    (Float.max (0.8 *. w) 2.0) (ssthresh b);
  Alcotest.(check (float 1e-9)) "cwnd reset to 1" 1.0 (cwnd b);
  Alcotest.(check bool) "slow start restart" true (b.phase = Slow_start)

(* -- Karn's rule / RTO interaction (both new variants) -- *)

let test_karn_rto_interaction create name =
  let h = with_loss create in
  let b = Harness.base h in
  let una = b.una in
  Harness.dupacks h 3;
  ignore (Harness.sent h);
  (* Karn's rule: the fast retransmission of una+1 must not be timed —
     if anything is being timed now, it is fresh data beyond it. *)
  (match b.timed with
  | Some (seq, _) ->
    Alcotest.(check bool) (name ^ " retransmit not timed") true (seq > una + 1)
  | None -> ());
  (* An RTO inside recovery backs the timer off (no sample arrived to
     reset it) and restarts in slow start. *)
  let rto_before = Tcp.Rto.value b.rto in
  Harness.advance h ~by:8.0;
  Alcotest.(check bool) (name ^ " rto backed off") true
    (Tcp.Rto.value b.rto >= rto_before *. 2.0 -. 1e-9);
  Alcotest.(check bool) (name ^ " left recovery") true (b.phase = Slow_start);
  (* A clean ACK of fresh (never-retransmitted) data yields a sample
     again, which resets the backoff. *)
  Harness.deliver_ack h b.maxseq;
  ignore (Harness.sent h);
  Harness.advance h ~by:0.05;
  Harness.deliver_ack h b.maxseq;
  Alcotest.(check bool) (name ^ " sample resets backoff") true
    (Tcp.Rto.value b.rto < rto_before *. 2.0)

(* Cross-variant invariants under arbitrary ACK scripts: no sender may
   transmit beyond the application's data horizon, leave the window in
   an inconsistent state, or crash — whatever the (plausible) ACK
   pattern. *)
type script_op = Advance of int | Dup | Dup_with_sack | Pass of float

let script_gen =
  QCheck2.Gen.(
    list_size (int_range 1 60)
      (frequency
         [
           (3, map (fun n -> Advance n) (int_range 1 4));
           (4, return Dup);
           (2, return Dup_with_sack);
           (2, map (fun dt -> Pass dt) (float_range 0.01 0.5));
         ]))

let variant_makers =
  List.map (fun v -> (Core.Variant.name v, Core.Variant.create v)) Core.Variant.all

(* The receive window is drawn too, down to one segment, where every
   cut and inflation meets the [rwnd] clamp. *)
let prop_sender_invariants =
  QCheck2.Test.make ~name:"all variants keep sender invariants" ~count:200
    QCheck2.Gen.(triple (int_range 0 8) (oneofl [ 1; 2; 20 ]) script_gen)
    (fun (variant_index, rwnd, ops) ->
      let _, create = List.nth variant_makers variant_index in
      let h = Harness.make ~params:{ Harness.params with rwnd } create in
      let limit = 50 in
      Tcp.Agent.supply_data h.Harness.agent ~segments:limit;
      Tcp.Agent.start h.Harness.agent;
      let b = Harness.base h in
      let ok = ref true in
      let check () =
        if
          not
            ((cwnd b) >= 1.0 && (ssthresh b) >= 2.0
            && b.t_seqno >= b.una + 1
            && b.una <= b.maxseq
            && b.maxseq < limit)
        then ok := false
      in
      List.iter
        (fun op ->
          (match op with
          | Advance n ->
            let target = min (b.una + n) b.maxseq in
            if target > b.una && not b.completed then
              Harness.deliver_ack h target
          | Dup ->
            if outstanding b > 0 && not b.completed then Harness.dupack h
          | Dup_with_sack ->
            if outstanding b > 0 && not b.completed then
              Harness.dupack
                ~sack:[ (b.una + 2, min (b.una + 6) (b.maxseq + 1)) ]
                h
          | Pass dt -> Harness.advance h ~by:dt);
          check ())
        ops;
      !ok)

let suite =
  [
    ( "tahoe",
      [
        Alcotest.test_case "fast retransmit" `Quick test_tahoe_fast_retransmit;
        Alcotest.test_case "slow start after loss" `Quick
          test_tahoe_slow_start_after_loss;
        Alcotest.test_case "2 dupacks no action" `Quick
          test_tahoe_two_dupacks_no_action;
        Alcotest.test_case "bugfix guard" `Quick test_tahoe_bugfix_guard;
      ] );
    ( "reno",
      [
        Alcotest.test_case "fast recovery inflation" `Quick
          test_reno_fast_recovery_inflation;
        Alcotest.test_case "partial ack exits" `Quick test_reno_partial_ack_exits;
        Alcotest.test_case "timeout during recovery" `Quick
          test_reno_timeout_during_recovery;
      ] );
    ( "newreno",
      [
        Alcotest.test_case "stays in recovery" `Quick test_newreno_stays_in_recovery;
        Alcotest.test_case "full ack exits" `Quick test_newreno_full_ack_exits;
        Alcotest.test_case "dupack-clocked sends" `Quick
          test_newreno_sends_on_dupacks_in_recovery;
        Alcotest.test_case "timeout during recovery" `Quick
          test_newreno_timeout_during_recovery;
      ] );
    ( "sack",
      [
        Alcotest.test_case "wants sack" `Quick test_sack_wants_sack;
        Alcotest.test_case "holes first" `Quick test_sack_retransmits_holes_first;
        Alcotest.test_case "no rtx of sacked" `Quick test_sack_no_rtx_of_sacked_data;
        Alcotest.test_case "exit at recover" `Quick test_sack_exit_at_recover;
        Alcotest.test_case "partial ack keeps recovery" `Quick
          test_sack_pipe_decrement_on_partial;
        Alcotest.test_case "timeout during recovery" `Quick
          test_sack_timeout_during_recovery;
      ] );
    ( "fack",
      [
        Alcotest.test_case "forward-evidence trigger" `Quick
          test_fack_triggers_on_forward_evidence;
        Alcotest.test_case "no premature trigger" `Quick
          test_fack_no_trigger_below_threshold;
        Alcotest.test_case "holes before new data" `Quick
          test_fack_holes_before_new_data;
        Alcotest.test_case "exit at recover" `Quick test_fack_exit_at_recover;
        Alcotest.test_case "timeout during recovery" `Quick (fun () ->
            test_timeout_during_recovery_resets Core.Variant.(create Fack) "fack");
      ] );
    ( "relentless",
      [
        Alcotest.test_case "exact decrease on entry" `Quick
          test_relentless_exact_decrease;
        Alcotest.test_case "full ack exit window" `Quick
          test_relentless_full_ack_exit_window;
        Alcotest.test_case "partial acks subtract" `Quick
          test_relentless_partial_acks_subtract;
        Alcotest.test_case "timeout during recovery" `Quick (fun () ->
            test_timeout_during_recovery_resets Core.Variant.(create Relentless)
              "relentless");
        Alcotest.test_case "karn/rto interaction" `Quick (fun () ->
            test_karn_rto_interaction Core.Variant.(create Relentless) "relentless");
      ] );
    ( "rrr",
      [
        Alcotest.test_case "level 0.5 matches newreno" `Quick
          test_rrr_half_level_matches_newreno;
        Alcotest.test_case "custom level backoff" `Quick
          test_rrr_custom_level_backoff;
        Alcotest.test_case "timeout takes level" `Quick
          test_rrr_timeout_takes_level;
        Alcotest.test_case "timeout during recovery" `Quick (fun () ->
            test_timeout_during_recovery_resets Core.Variant.(create Rrr) "rrr");
        Alcotest.test_case "karn/rto interaction" `Quick (fun () ->
            test_karn_rto_interaction Core.Variant.(create Rrr) "rrr");
      ] );
    ( "variant invariants",
      [ Qcheck_seed.to_alcotest prop_sender_invariants ] );
  ]

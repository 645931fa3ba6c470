(* White-box tests of the Robust Recovery algorithm — each pins one of
   the paper's §2 state-machine claims. *)

open Tcp.Sender_common

let make_rr () =
  let handle_cell = ref None in
  let h =
    Harness.make (fun ~engine ~params ~flow ~emit () ->
        let agent, handle =
          Core.Rr.create ~engine ~params ~flow ~emit
            ~ablation:Core.Rr.paper_design ()
        in
        handle_cell := Some handle;
        agent)
  in
  match !handle_cell with
  | Some handle -> (h, handle)
  | None -> assert false

(* Window of 20 segments outstanding, then three dup ACKs. *)
let enter_recovery () =
  let h, handle = make_rr () in
  Harness.open_window h ~target:20;
  ignore (Harness.sent h);
  let b = Harness.base h in
  let cwnd_at_loss = (cwnd b) in
  Harness.dupacks h 3;
  (h, handle, b, cwnd_at_loss)

let view handle =
  match Core.Rr.inspect handle with
  | Some view -> view
  | None -> Alcotest.fail "expected to be in recovery"

let test_entry () =
  let h, handle, b, cwnd_at_loss = enter_recovery () in
  let v = view handle in
  Alcotest.(check bool) "retreat stage" true (v.Core.Rr.stage = Core.Rr.Retreat);
  Alcotest.(check int) "actnum zero in retreat" 0 v.Core.Rr.actnum;
  Alcotest.(check int) "exit point = maxseq at entry" b.maxseq v.Core.Rr.exit_point;
  (* cwnd is frozen, not used for control (§2.2: "cwnd remains
     unchanged until the end of congestion recovery"). *)
  Alcotest.(check (float 1e-9)) "cwnd frozen" cwnd_at_loss (cwnd b);
  Alcotest.(check bool) "ssthresh halved" true
    (Float.abs ((ssthresh b) -. Float.max (cwnd_at_loss /. 2.0) 2.0) < 1e-9);
  match Harness.sent h with
  | [ { seq; retx = true; _ } ] ->
    Alcotest.(check int) "first lost packet retransmitted" (b.una + 1) seq
  | _ -> Alcotest.fail "expected exactly the hole retransmission"

let test_retreat_halves_rate () =
  let h, handle, _, _ = enter_recovery () in
  ignore (Harness.sent h);
  (* 8 duplicate ACKs in retreat: one new segment per two. *)
  Harness.dupacks h 8;
  let fresh = List.filter (fun s -> not s.Harness.retx) (Harness.sent h) in
  Alcotest.(check int) "4 new segments for 8 dupacks" 4 (List.length fresh);
  Alcotest.(check int) "ndup counted" 8 (view handle).Core.Rr.ndup

let test_retreat_to_probe_seeds_actnum () =
  let h, handle, b, _ = enter_recovery () in
  ignore (Harness.sent h);
  Harness.dupacks h 8;
  ignore (Harness.sent h);
  (* First non-duplicate (partial) ACK ends retreat. *)
  Harness.deliver_ack h (b.una + 2);
  let v = view handle in
  Alcotest.(check bool) "probe stage" true (v.Core.Rr.stage = Core.Rr.Probe);
  Alcotest.(check int) "actnum = segments sent in retreat" 4 v.Core.Rr.actnum;
  Alcotest.(check int) "ndup reset at RTT boundary" 0 v.Core.Rr.ndup;
  match Harness.sent h with
  | [ { seq; retx = true; _ } ] ->
    Alcotest.(check int) "next hole retransmitted" (b.una + 1) seq
  | _ -> Alcotest.fail "expected the next hole"

let test_probe_sends_per_dupack () =
  let h, _, b, _ = enter_recovery () in
  ignore (Harness.sent h);
  Harness.dupacks h 8;
  Harness.deliver_ack h (b.una + 2);
  ignore (Harness.sent h);
  Harness.dupacks h 3;
  let fresh = List.filter (fun s -> not s.Harness.retx) (Harness.sent h) in
  Alcotest.(check int) "one new segment per dupack" 3 (List.length fresh)

let test_probe_clean_rtt_grows_actnum () =
  let h, handle, b, _ = enter_recovery () in
  ignore (Harness.sent h);
  Harness.dupacks h 8;
  Harness.deliver_ack h (b.una + 2);
  ignore (Harness.sent h);
  (* All 4 retreat segments arrive: ndup = actnum = 4: clean RTT. *)
  Harness.dupacks h 4;
  ignore (Harness.sent h);
  Harness.deliver_ack h (b.una + 2);
  let v = view handle in
  Alcotest.(check int) "actnum grew by one" 5 v.Core.Rr.actnum;
  (* The boundary sends the +1 growth segment and the hole rtx. *)
  let sends = Harness.sent h in
  let fresh = List.filter (fun s -> not s.Harness.retx) sends in
  let rtx = List.filter (fun s -> s.Harness.retx) sends in
  Alcotest.(check int) "one growth segment" 1 (List.length fresh);
  Alcotest.(check int) "one retransmission" 1 (List.length rtx)

let test_probe_further_loss_shrinks_and_extends () =
  let h, handle, b, _ = enter_recovery () in
  ignore (Harness.sent h);
  Harness.dupacks h 8;
  Harness.deliver_ack h (b.una + 2);
  ignore (Harness.sent h);
  let original_exit = (view handle).Core.Rr.exit_point in
  (* Only 2 of the 4 retreat segments made it: ndup < actnum. *)
  Harness.dupacks h 2;
  ignore (Harness.sent h);
  Harness.deliver_ack h (b.una + 2);
  let v = view handle in
  Alcotest.(check int) "actnum <- ndup (linear backoff)" 2 v.Core.Rr.actnum;
  Alcotest.(check bool) "exit point extended" true
    (v.Core.Rr.exit_point > original_exit);
  Alcotest.(check int) "exit now at snd_nxt" b.maxseq v.Core.Rr.exit_point;
  Alcotest.(check int) "losses recorded" 2 v.Core.Rr.further_losses

let test_exit_sets_cwnd_to_actnum () =
  let h, handle, b, _ = enter_recovery () in
  ignore (Harness.sent h);
  Harness.dupacks h 8;
  Harness.deliver_ack h (b.una + 2);
  Harness.dupacks h 4;
  Harness.deliver_ack h (b.una + 2);
  let v = view handle in
  let exit_point = v.Core.Rr.exit_point in
  let actnum = v.Core.Rr.actnum in
  ignore (Harness.sent h);
  (* The full ACK covering the exit point terminates recovery. *)
  Harness.deliver_ack h exit_point;
  Alcotest.(check bool) "out of recovery" true (Core.Rr.inspect handle = None);
  Alcotest.(check (float 1e-9)) "cwnd <- actnum" (float_of_int actnum) (cwnd b);
  Alcotest.(check int) "clean exit counted" 1 (Core.Rr.recoveries handle)

let test_exit_no_big_ack_burst () =
  let h, handle, b, _ = enter_recovery () in
  ignore (Harness.sent h);
  Harness.dupacks h 8;
  Harness.deliver_ack h (b.una + 2);
  Harness.dupacks h 4;
  Harness.deliver_ack h (b.una + 2);
  let exit_point = (view handle).Core.Rr.exit_point in
  ignore (Harness.sent h);
  Harness.deliver_ack h exit_point;
  (* The terminating big ACK releases at most one new segment (packet
     conservation; §2.2.3 "the big ACK problem has been eliminated"). *)
  let fresh = List.filter (fun s -> not s.Harness.retx) (Harness.sent h) in
  Alcotest.(check bool)
    (Printf.sprintf "%d segments on exit" (List.length fresh))
    true
    (List.length fresh <= 1)

let test_single_loss_exits_after_retreat () =
  let h, handle, b, _ = enter_recovery () in
  ignore (Harness.sent h);
  Harness.dupacks h 8;
  ignore (Harness.sent h);
  (* Full ACK straight away: the only loss was repaired in retreat. *)
  Harness.deliver_ack h b.maxseq;
  Alcotest.(check bool) "recovery over" true (Core.Rr.inspect handle = None);
  Alcotest.(check (float 1e-9)) "cwnd = retreat send count" 4.0 (cwnd b)

let test_timeout_clears_recovery () =
  let h, handle, b, _ = enter_recovery () in
  Harness.advance h ~by:30.0;
  Alcotest.(check bool) "recovery cleared" true (Core.Rr.inspect handle = None);
  Alcotest.(check bool) "timeout counted" true
    (b.counters.Tcp.Counters.timeouts >= 1);
  Alcotest.(check (float 1e-9)) "slow start restart" 1.0 (cwnd b)

let test_ack_loss_tolerance () =
  (* Lost dup ACKs make ndup undercount: RR treats it as further loss
     and only shrinks linearly — it must not crash or stall. *)
  let h, handle, b, _ = enter_recovery () in
  ignore (Harness.sent h);
  Harness.dupacks h 8;
  Harness.deliver_ack h (b.una + 2);
  ignore (Harness.sent h);
  (* Deliver only 3 of the 4 expected dupacks (one ACK lost). *)
  Harness.dupacks h 3;
  Harness.deliver_ack h (b.una + 2);
  let v = view handle in
  Alcotest.(check int) "linear shrink only" 3 v.Core.Rr.actnum

let test_no_recovery_without_outstanding () =
  let h, handle = make_rr () in
  Harness.start ~segments:1 h;
  ignore (Harness.sent h);
  Harness.deliver_ack h 0;
  (* Stray dupacks with nothing outstanding are ignored. *)
  Harness.dupacks h 5;
  Alcotest.(check bool) "no recovery" true (Core.Rr.inspect handle = None)

let test_ablated_retreat_per_dupack () =
  let h =
    Harness.make (fun ~engine ~params ~flow ~emit () ->
        fst
          (Core.Rr.create ~engine ~params ~flow ~emit
             ~ablation:{ Core.Rr.paper_design with retreat_per_dupack = true }
             ()))
  in
  Harness.open_window h ~target:20;
  ignore (Harness.sent h);
  Harness.dupacks h 3;
  ignore (Harness.sent h);
  Harness.dupacks h 8;
  let fresh = List.filter (fun s -> not s.Harness.retx) (Harness.sent h) in
  Alcotest.(check int) "right-edge: 8 new for 8 dupacks" 8 (List.length fresh)

let test_rr_with_limited_transmit () =
  (* RFC 3042 composes with RR: the first two dupacks emit new data,
     the third enters retreat as usual. *)
  let handle_cell = ref None in
  let h =
    Harness.make
      ~params:{ Harness.params with Tcp.Params.limited_transmit = true }
      (fun ~engine ~params ~flow ~emit () ->
        let agent, handle =
          Core.Rr.create ~engine ~params ~flow ~emit
            ~ablation:Core.Rr.paper_design ()
        in
        handle_cell := Some handle;
        agent)
  in
  let handle = Option.get !handle_cell in
  Harness.open_window h ~target:10;
  ignore (Harness.sent h);
  Harness.dupack h;
  Harness.dupack h;
  let fresh = List.filter (fun s -> not s.Harness.retx) (Harness.sent h) in
  Alcotest.(check int) "two limited-transmit segments" 2 (List.length fresh);
  Alcotest.(check bool) "not yet recovering" true (Core.Rr.inspect handle = None);
  Harness.dupack h;
  Alcotest.(check bool) "third dupack enters retreat" true
    (match Core.Rr.inspect handle with
    | Some v -> v.Core.Rr.stage = Core.Rr.Retreat
    | None -> false)

let test_rr_second_burst_after_recovery () =
  (* A fresh loss burst after a clean exit starts a second, independent
     episode. *)
  let h, handle = make_rr () in
  Harness.open_window h ~target:20;
  ignore (Harness.sent h);
  let b = Harness.base h in
  Harness.dupacks h 3;
  ignore (Harness.sent h);
  Harness.dupacks h 8;
  ignore (Harness.sent h);
  Harness.deliver_ack h b.maxseq;
  Alcotest.(check int) "first episode done" 1 (Core.Rr.recoveries handle);
  (* Refill the pipe and lose again. *)
  for _ = 1 to 10 do
    Harness.deliver_ack h (b.una + 1);
    ignore (Harness.sent h)
  done;
  ignore (Harness.sent h);
  Harness.dupacks h 3;
  Alcotest.(check bool) "second episode entered" true
    (Core.Rr.inspect handle <> None)

(* Model-based robustness: drive an RR sender with arbitrary plausible
   ACK scripts (cumulative advances, duplicates, time passing) and check
   the state invariants after every step. *)
type script_op = Advance of int | Dup | Pass of float

let op_gen =
  QCheck2.Gen.(
    frequency
      [
        (3, map (fun n -> Advance n) (int_range 1 4));
        (5, return Dup);
        (2, map (fun dt -> Pass dt) (float_range 0.01 0.6));
      ])

let prop_invariants_under_any_script =
  QCheck2.Test.make ~name:"rr invariants hold under any ack script" ~count:300
    QCheck2.Gen.(list_size (int_range 1 80) op_gen)
    (fun ops ->
      let h, handle = make_rr () in
      Harness.open_window h ~target:20;
      let b = Harness.base h in
      let ok = ref true in
      let check_invariants () =
        let recovery_ok =
          match Core.Rr.inspect handle with
          | Some v ->
            v.Core.Rr.actnum >= 0 && v.Core.Rr.ndup >= 0
            && v.Core.Rr.exit_point >= b.una
          | None -> true
        in
        if
          not
            ((cwnd b) >= 1.0 && (ssthresh b) >= 2.0
            && b.t_seqno >= b.una + 1
            && b.una <= b.maxseq && recovery_ok)
        then ok := false
      in
      List.iter
        (fun op ->
          (match op with
          | Advance n ->
            let target = min (b.una + n) b.maxseq in
            if target > b.una then Harness.deliver_ack h target
          | Dup -> if outstanding b > 0 then Harness.dupack h
          | Pass dt -> Harness.advance h ~by:dt);
          check_invariants ())
        ops;
      !ok)

let suite =
  [
    ( "rr",
      [
        Alcotest.test_case "entry" `Quick test_entry;
        Alcotest.test_case "retreat halves rate" `Quick test_retreat_halves_rate;
        Alcotest.test_case "retreat->probe actnum seed" `Quick
          test_retreat_to_probe_seeds_actnum;
        Alcotest.test_case "probe per-dupack send" `Quick test_probe_sends_per_dupack;
        Alcotest.test_case "probe clean RTT growth" `Quick
          test_probe_clean_rtt_grows_actnum;
        Alcotest.test_case "further loss shrink+extend" `Quick
          test_probe_further_loss_shrinks_and_extends;
        Alcotest.test_case "exit cwnd = actnum" `Quick test_exit_sets_cwnd_to_actnum;
        Alcotest.test_case "no big-ack burst" `Quick test_exit_no_big_ack_burst;
        Alcotest.test_case "single loss exit" `Quick test_single_loss_exits_after_retreat;
        Alcotest.test_case "timeout clears recovery" `Quick test_timeout_clears_recovery;
        Alcotest.test_case "ack-loss tolerance" `Quick test_ack_loss_tolerance;
        Alcotest.test_case "idle dupacks ignored" `Quick
          test_no_recovery_without_outstanding;
        Alcotest.test_case "ablation: right-edge retreat" `Quick
          test_ablated_retreat_per_dupack;
        Alcotest.test_case "limited transmit composes" `Quick
          test_rr_with_limited_transmit;
        Alcotest.test_case "second burst, second episode" `Quick
          test_rr_second_burst_after_recovery;
        Qcheck_seed.to_alcotest prop_invariants_under_any_script;
      ] );
  ]

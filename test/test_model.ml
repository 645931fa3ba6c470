(* Analytic model tests: Mathis square-root model, Padhye (PFTK),
   Relentless (1/p) and RRR (generalised AIMD). *)

let close = Alcotest.(check (float 1e-9))

let test_mathis_window () =
  close "C/sqrt(p)" 12.2 (Model.Mathis.window ~c:1.22 ~loss_rate:0.01);
  close "paper C" 40.0 (Model.Mathis.window ~c:4.0 ~loss_rate:0.01)

let test_mathis_bandwidth () =
  (* window * 8*mss / rtt *)
  close "bandwidth" (12.2 *. 8000.0 /. 0.2)
    (Model.Mathis.bandwidth_bps ~c:1.22 ~mss:1000 ~rtt:0.2 ~loss_rate:0.01)

let test_mathis_constants () =
  close "ack-every-packet" (sqrt 1.5) Model.Mathis.c_ack_every_packet;
  close "delayed ack" (sqrt 0.75) Model.Mathis.c_delayed_ack;
  close "paper" 4.0 Model.Mathis.c_paper

let test_mathis_monotone () =
  let w p = Model.Mathis.window ~c:1.22 ~loss_rate:p in
  Alcotest.(check bool) "decreasing in p" true (w 0.01 > w 0.02 && w 0.02 > w 0.1)

let test_mathis_invalid () =
  Alcotest.check_raises "p=0" (Invalid_argument "Mathis.window: loss_rate out of (0, 1]")
    (fun () -> ignore (Model.Mathis.window ~c:1.22 ~loss_rate:0.0));
  Alcotest.check_raises "c" (Invalid_argument "Mathis.window: c <= 0") (fun () ->
      ignore (Model.Mathis.window ~c:0.0 ~loss_rate:0.1))

let test_mathis_window_limited () =
  close "model below cap" (Model.Mathis.window ~c:1.22 ~loss_rate:0.04)
    (Model.Mathis.window_limited ~c:1.22 ~loss_rate:0.04 ~rwnd:20);
  close "cap binds at small p" 20.0
    (Model.Mathis.window_limited ~c:1.22 ~loss_rate:0.001 ~rwnd:20);
  Alcotest.check_raises "rwnd" (Invalid_argument "Mathis.window_limited: rwnd < 1")
    (fun () ->
      ignore (Model.Mathis.window_limited ~c:1.22 ~loss_rate:0.01 ~rwnd:0))

let test_padhye_below_mathis () =
  (* With timeouts accounted, PFTK predicts no more than the
     square-root bound, and the gap widens with p. *)
  List.iter
    (fun p ->
      let mathis = Model.Mathis.window ~c:Model.Mathis.c_ack_every_packet ~loss_rate:p in
      let padhye = Model.Padhye.window ~rtt:0.2 ~rto:1.0 ~b:1 ~loss_rate:p in
      Alcotest.(check bool)
        (Printf.sprintf "padhye %.2f <= mathis %.2f at p=%.3f" padhye mathis p)
        true (padhye <= mathis +. 1e-9))
    [ 0.001; 0.01; 0.05; 0.1 ]

let test_padhye_rto_sensitivity () =
  let w rto = Model.Padhye.window ~rtt:0.2 ~rto ~b:1 ~loss_rate:0.05 in
  Alcotest.(check bool) "longer rto hurts" true (w 2.0 < w 1.0)

let test_padhye_bandwidth () =
  let window = Model.Padhye.window ~rtt:0.2 ~rto:1.0 ~b:1 ~loss_rate:0.01 in
  close "bandwidth consistent" (window *. 8000.0 /. 0.2)
    (Model.Padhye.bandwidth_bps ~mss:1000 ~rtt:0.2 ~rto:1.0 ~b:1 ~loss_rate:0.01)

let test_padhye_invalid () =
  Alcotest.check_raises "b" (Invalid_argument "Padhye: b < 1") (fun () ->
      ignore (Model.Padhye.window ~rtt:0.2 ~rto:1.0 ~b:0 ~loss_rate:0.1))

let prop_padhye_decreasing =
  QCheck2.Test.make ~name:"padhye window decreases with loss"
    QCheck2.Gen.(pair (float_range 0.001 0.4) (float_range 0.001 0.4))
    (fun (p1, p2) ->
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      lo = hi
      || Model.Padhye.window ~rtt:0.2 ~rto:1.0 ~b:1 ~loss_rate:lo
         >= Model.Padhye.window ~rtt:0.2 ~rto:1.0 ~b:1 ~loss_rate:hi)

let test_relentless_window () =
  (* arxiv 1102.3270 equilibrium: one loss per RTT balances the
     one-per-loss decrease, so W = 1/p. *)
  close "1/p" 100.0 (Model.Relentless.window ~loss_rate:0.01);
  close "1/p at p=0.1" 10.0 (Model.Relentless.window ~loss_rate:0.1)

let test_relentless_window_limited () =
  close "model below cap" 10.0
    (Model.Relentless.window_limited ~loss_rate:0.1 ~rwnd:20);
  close "cap binds at small p" 20.0
    (Model.Relentless.window_limited ~loss_rate:0.001 ~rwnd:20)

let test_relentless_bandwidth () =
  close "bandwidth = W * 8 mss / rtt" (100.0 *. 8000.0 /. 0.2)
    (Model.Relentless.bandwidth_bps ~mss:1000 ~rtt:0.2 ~loss_rate:0.01)

let test_relentless_invalid () =
  Alcotest.check_raises "p=0"
    (Invalid_argument "Relentless.window: loss_rate out of (0, 1]") (fun () ->
      ignore (Model.Relentless.window ~loss_rate:0.0))

let test_relentless_above_mathis () =
  (* 1/p > sqrt(3/2)/sqrt(p) whenever p < 2/3: the Relentless
     equilibrium dominates the Reno-family square-root model over the
     whole practical loss range. *)
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "1/p above C/sqrt(p) at p=%.3f" p)
        true
        (Model.Relentless.window ~loss_rate:p
        > Model.Mathis.window ~c:Model.Mathis.c_ack_every_packet ~loss_rate:p))
    [ 0.001; 0.01; 0.1; 0.5 ]

let test_rrr_window_formula () =
  close "sqrt((2 - l) / (2 l p))"
    (sqrt (1.8 /. (2.0 *. 0.2 *. 0.01)))
    (Model.Rrr.window ~level:0.2 ~loss_rate:0.01)

let test_rrr_half_level_is_mathis () =
  (* l = 0.5 collapses the generalised AIMD mean to the Mathis model:
     sqrt((2 - 0.5) / (2 * 0.5 * p)) = sqrt(1.5) / sqrt(p). *)
  List.iter
    (fun p ->
      close
        (Printf.sprintf "anchor at p=%.3f" p)
        (Model.Mathis.window ~c:Model.Mathis.c_ack_every_packet ~loss_rate:p)
        (Model.Rrr.window ~level:0.5 ~loss_rate:p))
    [ 0.001; 0.01; 0.05; 0.1 ]

let test_rrr_window_limited () =
  close "cap binds at small p" 20.0
    (Model.Rrr.window_limited ~level:0.5 ~loss_rate:0.001 ~rwnd:20)

let test_rrr_bandwidth () =
  let window = Model.Rrr.window ~level:0.3 ~loss_rate:0.02 in
  close "bandwidth consistent" (window *. 8000.0 /. 0.2)
    (Model.Rrr.bandwidth_bps ~level:0.3 ~mss:1000 ~rtt:0.2 ~loss_rate:0.02)

let test_rrr_invalid () =
  Alcotest.check_raises "level 0"
    (Invalid_argument "Rrr: level out of (0, 1)") (fun () ->
      ignore (Model.Rrr.window ~level:0.0 ~loss_rate:0.01));
  Alcotest.check_raises "level 1"
    (Invalid_argument "Rrr: level out of (0, 1)") (fun () ->
      ignore (Model.Rrr.window ~level:1.0 ~loss_rate:0.01));
  Alcotest.check_raises "p=0"
    (Invalid_argument "Rrr.window: loss_rate out of (0, 1]") (fun () ->
      ignore (Model.Rrr.window ~level:0.5 ~loss_rate:0.0))

let prop_rrr_gentler_level_larger_window =
  QCheck2.Test.make ~name:"rrr window decreases with level and loss"
    QCheck2.Gen.(
      triple (float_range 0.05 0.95) (float_range 0.05 0.95)
        (float_range 0.001 0.4))
    (fun (l1, l2, p) ->
      let lo = Float.min l1 l2 and hi = Float.max l1 l2 in
      lo = hi
      || Model.Rrr.window ~level:lo ~loss_rate:p
         >= Model.Rrr.window ~level:hi ~loss_rate:p)

let suite =
  [
    ( "model",
      [
        Alcotest.test_case "mathis window" `Quick test_mathis_window;
        Alcotest.test_case "mathis bandwidth" `Quick test_mathis_bandwidth;
        Alcotest.test_case "mathis constants" `Quick test_mathis_constants;
        Alcotest.test_case "mathis monotone" `Quick test_mathis_monotone;
        Alcotest.test_case "mathis invalid" `Quick test_mathis_invalid;
        Alcotest.test_case "mathis window limited" `Quick test_mathis_window_limited;
        Alcotest.test_case "padhye below mathis" `Quick test_padhye_below_mathis;
        Alcotest.test_case "padhye rto sensitivity" `Quick test_padhye_rto_sensitivity;
        Alcotest.test_case "padhye bandwidth" `Quick test_padhye_bandwidth;
        Alcotest.test_case "padhye invalid" `Quick test_padhye_invalid;
        Qcheck_seed.to_alcotest prop_padhye_decreasing;
        Alcotest.test_case "relentless window" `Quick test_relentless_window;
        Alcotest.test_case "relentless window limited" `Quick
          test_relentless_window_limited;
        Alcotest.test_case "relentless bandwidth" `Quick
          test_relentless_bandwidth;
        Alcotest.test_case "relentless invalid" `Quick test_relentless_invalid;
        Alcotest.test_case "relentless above mathis" `Quick
          test_relentless_above_mathis;
        Alcotest.test_case "rrr window formula" `Quick test_rrr_window_formula;
        Alcotest.test_case "rrr half level is mathis" `Quick
          test_rrr_half_level_is_mathis;
        Alcotest.test_case "rrr window limited" `Quick test_rrr_window_limited;
        Alcotest.test_case "rrr bandwidth" `Quick test_rrr_bandwidth;
        Alcotest.test_case "rrr invalid" `Quick test_rrr_invalid;
        Qcheck_seed.to_alcotest prop_rrr_gentler_level_larger_window;
      ] );
  ]

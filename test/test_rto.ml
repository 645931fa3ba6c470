(* RTT estimation and retransmission-timeout tests (Jacobson/Karels). *)

let make () = Tcp.Rto.create ~min_rto:1.0 ~max_rto:64.0 ~initial_rto:3.0 ()

let close = Alcotest.(check (float 1e-9))

let test_initial () =
  let rto = make () in
  close "initial rto" 3.0 (Tcp.Rto.value rto);
  Alcotest.(check bool) "no srtt" true (Tcp.Rto.srtt rto = None)

let test_first_sample () =
  let rto = make () in
  Tcp.Rto.sample rto 0.2;
  (match Tcp.Rto.srtt rto with
  | Some srtt -> close "srtt = m" 0.2 srtt
  | None -> Alcotest.fail "srtt");
  (match Tcp.Rto.rttvar rto with
  | Some rttvar -> close "rttvar = m/2" 0.1 rttvar
  | None -> Alcotest.fail "rttvar");
  (* srtt + 4*rttvar = 0.6 clamps up to min_rto. *)
  close "clamped to min" 1.0 (Tcp.Rto.value rto)

let test_jacobson_update () =
  let rto = make () in
  Tcp.Rto.sample rto 0.2;
  Tcp.Rto.sample rto 0.4;
  (* srtt = 0.2 + (0.4-0.2)/8 = 0.225; rttvar = 0.1 + (0.2-0.1)/4 = 0.125 *)
  (match Tcp.Rto.srtt rto with
  | Some srtt -> close "srtt" 0.225 srtt
  | None -> Alcotest.fail "srtt");
  match Tcp.Rto.rttvar rto with
  | Some rttvar -> close "rttvar" 0.125 rttvar
  | None -> Alcotest.fail "rttvar"

let test_value_above_min () =
  let rto = make () in
  Tcp.Rto.sample rto 2.0;
  (* 2.0 + 4*1.0 = 6.0, well above min. *)
  close "unclamped" 6.0 (Tcp.Rto.value rto)

let test_backoff () =
  let rto = make () in
  Tcp.Rto.sample rto 0.2;
  close "base" 1.0 (Tcp.Rto.value rto);
  Tcp.Rto.backoff rto;
  close "doubled" 2.0 (Tcp.Rto.value rto);
  Tcp.Rto.backoff rto;
  close "doubled again" 4.0 (Tcp.Rto.value rto);
  for _ = 1 to 20 do
    Tcp.Rto.backoff rto
  done;
  close "clamped to max" 64.0 (Tcp.Rto.value rto)

let test_sample_resets_backoff () =
  let rto = make () in
  Tcp.Rto.sample rto 0.2;
  Tcp.Rto.backoff rto;
  Tcp.Rto.backoff rto;
  Tcp.Rto.sample rto 0.2;
  close "backoff cleared" 1.0 (Tcp.Rto.value rto)

let test_invalid () =
  Alcotest.check_raises "bounds" (Invalid_argument "Rto.create: inconsistent bounds")
    (fun () ->
      ignore (Tcp.Rto.create ~min_rto:2.0 ~max_rto:1.0 ~initial_rto:2.0 ()));
  let rto = make () in
  Alcotest.check_raises "negative sample"
    (Invalid_argument "Rto.sample: negative RTT") (fun () ->
      Tcp.Rto.sample rto (-0.1))

let test_initial_bounds () =
  (* The seed silently accepted initial_rto above the ceiling, producing
     a timeout that value's clamp then contradicted. Both edges of the
     valid range are fine; past the ceiling is rejected. *)
  Alcotest.check_raises "initial above max is rejected"
    (Invalid_argument "Rto.create: inconsistent bounds") (fun () ->
      ignore (Tcp.Rto.create ~min_rto:1.0 ~max_rto:2.0 ~initial_rto:3.0 ()));
  let at_max = Tcp.Rto.create ~min_rto:1.0 ~max_rto:2.0 ~initial_rto:2.0 () in
  close "initial = max is accepted" 2.0 (Tcp.Rto.value at_max);
  let at_min = Tcp.Rto.create ~min_rto:1.0 ~max_rto:2.0 ~initial_rto:1.0 () in
  close "initial = min is accepted" 1.0 (Tcp.Rto.value at_min)

(* -- the pluggable estimator family (Jain, cs/9809097) -- *)

let fine estimator =
  Tcp.Rto.create ~min_rto:0.2 ~max_rto:8.0 ~initial_rto:0.5 ~estimator ()

let test_estimator_names () =
  List.iter
    (fun e ->
      match Tcp.Rto.estimator_of_string (Tcp.Rto.estimator_name e) with
      | Ok round -> Alcotest.(check bool) "name round-trips" true (round = e)
      | Error m -> Alcotest.fail m)
    Tcp.Rto.estimators;
  Alcotest.(check bool) "jk alias" true
    (Tcp.Rto.estimator_of_string "jk" = Ok Tcp.Rto.Jacobson);
  Alcotest.(check bool) "mean alias" true
    (Tcp.Rto.estimator_of_string "mean" = Ok Tcp.Rto.Rfc793);
  Alcotest.(check bool) "unknown names are rejected" true
    (Result.is_error (Tcp.Rto.estimator_of_string "vegas"));
  Alcotest.(check bool) "default is jacobson" true
    (Tcp.Rto.estimator (make ()) = Tcp.Rto.Jacobson)

let test_fixed_never_adapts () =
  let rto = fine Tcp.Rto.Fixed in
  List.iter (fun s -> Tcp.Rto.sample rto s) [ 0.3; 1.0; 2.5; 0.4 ];
  (* The prediction stays pinned at the initial RTO whatever arrives —
     though samples still keep srtt bookkeeping and reset backoff. *)
  close "fixed prediction" 0.5 (Tcp.Rto.value rto);
  Alcotest.(check bool) "srtt still tracked" true (Tcp.Rto.srtt rto <> None);
  Tcp.Rto.backoff rto;
  close "backoff still applies" 1.0 (Tcp.Rto.value rto);
  Tcp.Rto.sample rto 0.3;
  close "sample still resets backoff" 0.5 (Tcp.Rto.value rto)

let test_rfc793_is_twice_srtt () =
  let rto = fine Tcp.Rto.Rfc793 in
  Tcp.Rto.sample rto 0.4;
  Tcp.Rto.sample rto 0.8;
  (* srtt = 0.4 + (0.8-0.4)/8 = 0.45; RTO = 2*srtt, no variance term. *)
  close "2 * srtt" 0.9 (Tcp.Rto.value rto)

let test_agile_gains () =
  let rto = fine Tcp.Rto.Agile in
  Tcp.Rto.sample rto 0.2;
  Tcp.Rto.sample rto 0.4;
  (* srtt = 0.2 + (0.4-0.2)/4 = 0.25; rttvar = 0.1 + (0.2-0.1)/2 = 0.15 *)
  (match Tcp.Rto.srtt rto with
  | Some srtt -> close "agile srtt gain 1/4" 0.25 srtt
  | None -> Alcotest.fail "srtt");
  (match Tcp.Rto.rttvar rto with
  | Some rttvar -> close "agile rttvar gain 1/2" 0.15 rttvar
  | None -> Alcotest.fail "rttvar");
  close "srtt + 4*rttvar" 0.85 (Tcp.Rto.value rto)

let test_fine_timeout () =
  (* No estimate yet: the fine timeout is the initial RTO. *)
  let rto = fine Tcp.Rto.Jacobson in
  close "pre-sample fine timeout" 0.5 (Tcp.Rto.fine_timeout rto);
  (* With an estimate the raw prediction passes through un-floored
     (0.18 + 4*0.09 = 0.54... below min_rto would too) and unbacked-off. *)
  Tcp.Rto.sample rto 0.1;
  close "raw prediction, no min_rto floor" 0.3 (Tcp.Rto.fine_timeout rto);
  Tcp.Rto.backoff rto;
  close "backoff does not leak into the fine timer" 0.3
    (Tcp.Rto.fine_timeout rto);
  (* The ceiling still applies: 0.6 + 4*0.3 = 1.8 is capped at 1.2. *)
  let capped =
    Tcp.Rto.create ~min_rto:0.2 ~max_rto:1.2 ~initial_rto:0.5 ()
  in
  Tcp.Rto.sample capped 0.6;
  close "capped at max_rto" 1.2 (Tcp.Rto.fine_timeout capped)

let prop_rto_bounded =
  QCheck2.Test.make ~name:"rto stays within [min,max] for every estimator"
    QCheck2.Gen.(
      pair (list (float_bound_inclusive 10.0)) (oneofl Tcp.Rto.estimators))
    (fun (samples, estimator) ->
      let rto =
        Tcp.Rto.create ~min_rto:1.0 ~max_rto:64.0 ~initial_rto:3.0 ~estimator ()
      in
      List.iter (fun s -> Tcp.Rto.sample rto s) samples;
      let v = Tcp.Rto.value rto in
      v >= 1.0 && v <= 64.0)

let suite =
  [
    ( "rto",
      [
        Alcotest.test_case "initial" `Quick test_initial;
        Alcotest.test_case "first sample" `Quick test_first_sample;
        Alcotest.test_case "jacobson update" `Quick test_jacobson_update;
        Alcotest.test_case "value above min" `Quick test_value_above_min;
        Alcotest.test_case "backoff" `Quick test_backoff;
        Alcotest.test_case "sample resets backoff" `Quick test_sample_resets_backoff;
        Alcotest.test_case "invalid" `Quick test_invalid;
        Alcotest.test_case "initial bounds" `Quick test_initial_bounds;
        Alcotest.test_case "estimator names" `Quick test_estimator_names;
        Alcotest.test_case "fixed never adapts" `Quick test_fixed_never_adapts;
        Alcotest.test_case "rfc793 = 2*srtt" `Quick test_rfc793_is_twice_srtt;
        Alcotest.test_case "agile gains" `Quick test_agile_gains;
        Alcotest.test_case "fine timeout" `Quick test_fine_timeout;
        Qcheck_seed.to_alcotest prop_rto_bounded;
      ] );
  ]

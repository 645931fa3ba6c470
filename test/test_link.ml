(* Link tests: serialization + propagation timing, FIFO delivery,
   back-to-back spacing, and queue interaction. *)

let packet ?(flow = 0) ?(size = 1000) seq =
  Net.Packet.data ~uid:seq ~flow ~seq ~size_bytes:size ~born:0.0

(* 1000-byte packet on 0.8 Mbps: tx = 10 ms; delay 96 ms. *)
let make ?(bandwidth = Sim.Units.mbps 0.8) ?(delay = 0.096) ?(capacity = 8) () =
  let engine = Sim.Engine.create () in
  let arrivals = ref [] in
  let queue = Net.Droptail.create ~capacity () in
  let link =
    Net.Link.create ~engine ~bandwidth_bps:bandwidth ~delay ~queue
      ~dst:(fun p ->
        arrivals := (Sim.Engine.now engine, Net.Packet.seq_exn p) :: !arrivals)
      ()
  in
  (engine, link, arrivals)

let test_single_packet_latency () =
  let engine, link, arrivals = make () in
  Net.Link.send link (packet 1);
  Sim.Engine.run engine;
  match !arrivals with
  | [ (t, 1) ] -> Alcotest.(check (float 1e-9)) "tx + prop" 0.106 t
  | _ -> Alcotest.fail "expected exactly one arrival"

let test_back_to_back_spacing () =
  let engine, link, arrivals = make () in
  Net.Link.send link (packet 1);
  Net.Link.send link (packet 2);
  Net.Link.send link (packet 3);
  Sim.Engine.run engine;
  match List.rev !arrivals with
  | [ (t1, 1); (t2, 2); (t3, 3) ] ->
    (* Pipelined: arrivals are one serialization time apart. *)
    Alcotest.(check (float 1e-9)) "first" 0.106 t1;
    Alcotest.(check (float 1e-9)) "spacing" 0.01 (t2 -. t1);
    Alcotest.(check (float 1e-9)) "spacing" 0.01 (t3 -. t2)
  | _ -> Alcotest.fail "expected three arrivals in order"

let test_size_dependent_tx () =
  let engine, link, arrivals = make ~bandwidth:(Sim.Units.mbps 10.0) ~delay:0.001 () in
  Net.Link.send link (packet ~size:40 1);
  Sim.Engine.run engine;
  match !arrivals with
  | [ (t, 1) ] -> Alcotest.(check (float 1e-9)) "40B ack timing" 0.001032 t
  | _ -> Alcotest.fail "one arrival"

let test_busy_and_idle () =
  let engine, link, _ = make () in
  Alcotest.(check bool) "idle" false (Net.Link.busy link);
  Net.Link.send link (packet 1);
  Alcotest.(check bool) "busy" true (Net.Link.busy link);
  Sim.Engine.run engine;
  Alcotest.(check bool) "idle again" false (Net.Link.busy link);
  Alcotest.(check int) "delivered" 1 (Net.Link.delivered link)

let test_overload_drops () =
  let engine, link, arrivals = make ~capacity:3 () in
  (* Burst of 10 into a 3-packet queue while the first serializes. *)
  for i = 1 to 10 do
    Net.Link.send link (packet i)
  done;
  Sim.Engine.run engine;
  (* 1 in service + 3 queued survive. *)
  Alcotest.(check int) "survivors" 4 (List.length !arrivals);
  Alcotest.(check int) "drops" 6
    (Net.Link.queue link).Net.Queue_disc.stats.Net.Queue_disc.dropped

let test_work_conserving_after_idle () =
  let engine, link, arrivals = make () in
  Net.Link.send link (packet 1);
  Sim.Engine.run engine;
  Sim.Engine.schedule_at engine ~time:1.0 (fun () -> Net.Link.send link (packet 2));
  Sim.Engine.run engine;
  match List.rev !arrivals with
  | [ (_, 1); (t2, 2) ] -> Alcotest.(check (float 1e-9)) "restart timing" 1.106 t2
  | _ -> Alcotest.fail "two arrivals"

(* Conservation: every packet offered to a link is eventually delivered,
   dropped by the queue, or still queued/in service — never duplicated
   or lost silently. *)
let prop_conservation =
  QCheck2.Test.make ~name:"link conserves packets" ~count:200
    QCheck2.Gen.(
      pair (int_range 1 40)
        (list_size (int_range 1 30) (float_range 0.0 0.05)))
    (fun (capacity, send_gaps) ->
      let engine = Sim.Engine.create () in
      let delivered = ref 0 in
      let queue = Net.Droptail.create ~capacity () in
      let link =
        Net.Link.create ~engine ~bandwidth_bps:(Sim.Units.mbps 0.8) ~delay:0.05
          ~queue
          ~dst:(fun _ -> incr delivered)
          ()
      in
      let time = ref 0.0 in
      List.iteri
        (fun i gap ->
          time := !time +. gap;
          Sim.Engine.schedule_at engine ~time:!time (fun () ->
              Net.Link.send link (packet i)))
        send_gaps;
      Sim.Engine.run engine;
      let dropped = queue.Net.Queue_disc.stats.Net.Queue_disc.dropped in
      !delivered + dropped = List.length send_gaps
      && queue.Net.Queue_disc.length () = 0)

let test_invalid_args () =
  let engine = Sim.Engine.create () in
  let queue = Net.Droptail.create ~capacity:1 () in
  Alcotest.check_raises "bandwidth" (Invalid_argument "Link.create: bandwidth <= 0")
    (fun () ->
      ignore
        (Net.Link.create ~engine ~bandwidth_bps:0.0 ~delay:0.1 ~queue
           ~dst:(fun _ -> ())
           ()));
  Alcotest.check_raises "delay" (Invalid_argument "Link.create: negative delay")
    (fun () ->
      ignore
        (Net.Link.create ~engine ~bandwidth_bps:1e6 ~delay:(-0.1) ~queue
           ~dst:(fun _ -> ())
           ()))

(* NaN fails every comparison, so a [<= 0] test lets it through: it
   used to surface as an assertion or a scheduling error far from the
   call. Infinity is refused too: an infinite rate serializes in zero
   time and an infinite delay never delivers. *)
let test_non_finite_refused () =
  let engine = Sim.Engine.create () in
  let create ~bandwidth_bps ~delay () =
    Net.Link.create ~engine ~bandwidth_bps ~delay
      ~queue:(Net.Droptail.create ~capacity:1 ())
      ~dst:(fun _ -> ())
      ()
  in
  let raises message f =
    Alcotest.check_raises message (Invalid_argument message) (fun () ->
        ignore (f ()))
  in
  List.iter
    (fun bad ->
      raises "Link.create: bandwidth not finite"
        (create ~bandwidth_bps:bad ~delay:0.1);
      raises "Link.create: delay not finite" (create ~bandwidth_bps:1e6 ~delay:bad))
    [ nan; -.nan; infinity ];
  raises "Link.create: bandwidth <= 0" (create ~bandwidth_bps:neg_infinity ~delay:0.1);
  raises "Link.create: negative delay" (create ~bandwidth_bps:1e6 ~delay:neg_infinity);
  let link = create ~bandwidth_bps:1e6 ~delay:0.1 () in
  List.iter
    (fun bad ->
      raises "Link.set_rate: bandwidth not finite" (fun () -> Net.Link.set_rate link bad);
      raises "Link.set_delay: delay not finite" (fun () -> Net.Link.set_delay link bad))
    [ nan; infinity ];
  Alcotest.(check (float 0.0)) "rate kept" 1e6 (Net.Link.rate_bps link);
  Alcotest.(check (float 0.0)) "delay kept" 0.1 (Net.Link.delay link)

let suite =
  [
    ( "link",
      [
        Alcotest.test_case "single packet latency" `Quick test_single_packet_latency;
        Alcotest.test_case "back-to-back spacing" `Quick test_back_to_back_spacing;
        Alcotest.test_case "size-dependent tx" `Quick test_size_dependent_tx;
        Alcotest.test_case "busy/idle" `Quick test_busy_and_idle;
        Alcotest.test_case "overload drops" `Quick test_overload_drops;
        Alcotest.test_case "work conserving" `Quick test_work_conserving_after_idle;
        Alcotest.test_case "invalid args" `Quick test_invalid_args;
        Alcotest.test_case "non-finite rate and delay refused" `Quick
          test_non_finite_refused;
        Qcheck_seed.to_alcotest prop_conservation;
      ] );
  ]

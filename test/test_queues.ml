(* Drop-tail and RED queue-discipline tests. *)

let packet ?(flow = 0) ?(size = 1000) seq =
  Net.Packet.data ~uid:seq ~flow ~seq ~size_bytes:size ~born:0.0

let test_droptail_fifo () =
  let q = Net.Droptail.create ~capacity:10 () in
  List.iter (fun s -> ignore (q.Net.Queue_disc.enqueue (packet s) : bool)) [ 1; 2; 3 ];
  let seqs =
    List.init 3 (fun _ ->
        let p = q.Net.Queue_disc.dequeue () in
        if Net.Packet.is_none p then -1 else Net.Packet.seq_exn p)
  in
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] seqs;
  Alcotest.(check bool) "drained" true
    (Net.Packet.is_none (q.Net.Queue_disc.dequeue ()))

(* The ring under Droptail and RED: FIFO order across wrap-around and
   growth, and the sentinel when empty. *)
let test_fifo_ring () =
  let fifo = Net.Fifo.create () in
  let taken = ref [] in
  let take () =
    let p = Net.Fifo.take fifo in
    if not (Net.Packet.is_none p) then taken := Net.Packet.seq_exn p :: !taken
  in
  for seq = 0 to 9 do Net.Fifo.push fifo (packet seq) done;
  for _ = 1 to 5 do take () done;
  for seq = 10 to 49 do Net.Fifo.push fifo (packet seq) done;
  Alcotest.(check int) "length" 45 (Net.Fifo.length fifo);
  while not (Net.Fifo.is_empty fifo) do take () done;
  Alcotest.(check (list int)) "fifo order" (List.init 50 Fun.id) (List.rev !taken);
  Alcotest.(check bool) "empty take is the sentinel" true
    (Net.Packet.is_none (Net.Fifo.take fifo))

let test_droptail_capacity () =
  let dropped = ref [] in
  let q =
    Net.Droptail.create ~capacity:2
      ~on_drop:(fun p -> dropped := Net.Packet.seq_exn p :: !dropped)
      ()
  in
  let accepted =
    List.map (fun s -> q.Net.Queue_disc.enqueue (packet s)) [ 1; 2; 3; 4 ]
  in
  Alcotest.(check (list bool)) "two accepted" [ true; true; false; false ] accepted;
  Alcotest.(check (list int)) "drop callback" [ 4; 3 ] !dropped;
  Alcotest.(check int) "stats enq" 2 q.Net.Queue_disc.stats.Net.Queue_disc.enqueued;
  Alcotest.(check int) "stats drop" 2 q.Net.Queue_disc.stats.Net.Queue_disc.dropped;
  (* Draining makes room again. *)
  ignore (q.Net.Queue_disc.dequeue ());
  Alcotest.(check bool) "room again" true (q.Net.Queue_disc.enqueue (packet 5))

let test_droptail_byte_length () =
  let q = Net.Droptail.create ~capacity:5 () in
  ignore (q.Net.Queue_disc.enqueue (packet ~size:700 1) : bool);
  ignore (q.Net.Queue_disc.enqueue (packet ~size:300 2) : bool);
  Alcotest.(check int) "bytes" 1000 (q.Net.Queue_disc.byte_length ());
  ignore (q.Net.Queue_disc.dequeue ());
  Alcotest.(check int) "bytes after deq" 300 (q.Net.Queue_disc.byte_length ())

let test_droptail_invalid () =
  Alcotest.check_raises "capacity" (Invalid_argument "Droptail.create: capacity < 1")
    (fun () -> ignore (Net.Droptail.create ~capacity:0 ()))

let make_red ?(capacity = 25) ?(params = Net.Red.paper_params) () =
  let engine = Sim.Engine.create () in
  let disc, stats, probe =
    Net.Red.create_with_probe ~engine ~capacity ~params
      ~rng:(Sim.Rng.create 9L) ~bandwidth_bps:(Sim.Units.mbps 0.8) ()
  in
  (engine, disc, stats, probe)

let test_red_no_drops_below_min () =
  let _, q, stats, _ = make_red () in
  (* Keep the instantaneous queue at <= 2: the average stays below
     min_th = 5, so nothing may drop. *)
  for i = 1 to 200 do
    ignore (q.Net.Queue_disc.enqueue (packet i) : bool);
    while q.Net.Queue_disc.length () > 2 do
      ignore (q.Net.Queue_disc.dequeue ())
    done
  done;
  Alcotest.(check int) "no early" 0 stats.Net.Red.early;
  Alcotest.(check int) "no forced" 0 stats.Net.Red.forced;
  Alcotest.(check int) "no overflow" 0 stats.Net.Red.buffer_full

let test_red_average_tracks_queue () =
  let _, q, _, probe = make_red () in
  for i = 1 to 2000 do
    ignore (q.Net.Queue_disc.enqueue (packet i) : bool);
    if q.Net.Queue_disc.length () > 10 then ignore (q.Net.Queue_disc.dequeue ())
  done;
  let avg = probe () in
  Alcotest.(check bool)
    (Printf.sprintf "avg %.2f approaches queue ~10" avg)
    true
    (avg > 6.0 && avg < 12.0)

let test_red_forced_drops_above_max () =
  let _, q, stats, probe = make_red ~capacity:100 () in
  (* Fill without draining: the average eventually crosses max_th = 20
     and every arrival is dropped. *)
  for i = 1 to 4000 do
    ignore (q.Net.Queue_disc.enqueue (packet i) : bool)
  done;
  Alcotest.(check bool) "avg above max_th" true (probe () >= 20.0);
  Alcotest.(check bool) "forced drops happened" true (stats.Net.Red.forced > 0)

let test_red_early_drops_in_band () =
  let _, q, stats, _ = make_red ~capacity:100 () in
  (* Hold the queue around 12 — inside [min_th, max_th): early drops
     must appear with probability ~max_p. *)
  for i = 1 to 5000 do
    ignore (q.Net.Queue_disc.enqueue (packet i) : bool);
    if q.Net.Queue_disc.length () > 12 then ignore (q.Net.Queue_disc.dequeue ())
  done;
  Alcotest.(check bool)
    (Printf.sprintf "early drops %d > 0" stats.Net.Red.early)
    true (stats.Net.Red.early > 0);
  Alcotest.(check int) "no forced" 0 stats.Net.Red.forced

let test_red_idle_decay () =
  let engine, q, _, probe = make_red () in
  for i = 1 to 40 do
    ignore (q.Net.Queue_disc.enqueue (packet i) : bool);
    if q.Net.Queue_disc.length () > 8 then ignore (q.Net.Queue_disc.dequeue ())
  done;
  (* Drain completely, idle for a long time, then enqueue once: the
     average must have decayed toward zero. *)
  while not (Net.Packet.is_none (q.Net.Queue_disc.dequeue ())) do () done;
  let before = probe () in
  Sim.Engine.run_until engine ~time:60.0;
  ignore (q.Net.Queue_disc.enqueue (packet 999) : bool);
  let after = probe () in
  Alcotest.(check bool)
    (Printf.sprintf "decayed %.3f -> %.3f" before after)
    true
    (after < before /. 2.0)

let test_red_validation () =
  let engine = Sim.Engine.create () in
  let bad params =
    Alcotest.check_raises "invalid params"
      (Invalid_argument "Red.create: need 0 < min_th < max_th") (fun () ->
        ignore
          (Net.Red.create ~engine ~capacity:10 ~params ~rng:(Sim.Rng.create 1L)
             ~bandwidth_bps:1e6 ()))
  in
  bad { Net.Red.paper_params with min_th = 10.0; max_th = 5.0 }

let suite =
  [
    ( "droptail",
      [
        Alcotest.test_case "fifo" `Quick test_droptail_fifo;
        Alcotest.test_case "ring wraps and grows" `Quick test_fifo_ring;
        Alcotest.test_case "capacity" `Quick test_droptail_capacity;
        Alcotest.test_case "byte length" `Quick test_droptail_byte_length;
        Alcotest.test_case "invalid" `Quick test_droptail_invalid;
      ] );
    ( "red",
      [
        Alcotest.test_case "no drops below min_th" `Quick test_red_no_drops_below_min;
        Alcotest.test_case "average tracks queue" `Quick test_red_average_tracks_queue;
        Alcotest.test_case "forced above max_th" `Quick test_red_forced_drops_above_max;
        Alcotest.test_case "early drops in band" `Quick test_red_early_drops_in_band;
        Alcotest.test_case "idle decay" `Quick test_red_idle_decay;
        Alcotest.test_case "parameter validation" `Quick test_red_validation;
      ] );
  ]

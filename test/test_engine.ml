(* Discrete-event engine and timer tests: time ordering, simultaneity,
   cancellation, run_until semantics, stop, and the restartable timer. *)

let test_runs_in_time_order () =
  let engine = Sim.Engine.create () in
  let log = ref [] in
  let note tag () = log := (tag, Sim.Engine.now engine) :: !log in
  ignore (Sim.Engine.schedule_at engine ~time:3.0 (note "c"));
  ignore (Sim.Engine.schedule_at engine ~time:1.0 (note "a"));
  ignore (Sim.Engine.schedule_at engine ~time:2.0 (note "b"));
  Sim.Engine.run engine;
  Alcotest.(check (list (pair string (float 1e-9))))
    "order and clock"
    [ ("a", 1.0); ("b", 2.0); ("c", 3.0) ]
    (List.rev !log)

let test_simultaneous_fifo () =
  let engine = Sim.Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Sim.Engine.schedule_at engine ~time:1.0 (fun () -> log := i :: !log))
  done;
  Sim.Engine.run engine;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_schedule_during_run () =
  let engine = Sim.Engine.create () in
  let log = ref [] in
  ignore
    (Sim.Engine.schedule_at engine ~time:1.0 (fun () ->
         log := "first" :: !log;
         ignore
           (Sim.Engine.schedule_after engine ~delay:0.5 (fun () ->
                log := "nested" :: !log))));
  Sim.Engine.run engine;
  Alcotest.(check (list string)) "nested" [ "first"; "nested" ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock" 1.5 (Sim.Engine.now engine)

let test_cancel () =
  let engine = Sim.Engine.create () in
  let fired = ref false in
  let handle = Sim.Engine.schedule_at engine ~time:1.0 (fun () -> fired := true) in
  Sim.Engine.cancel engine handle;
  Sim.Engine.run engine;
  Alcotest.(check bool) "cancelled" false !fired;
  Alcotest.(check int) "no pending" 0 (Sim.Engine.pending engine)

let test_cancel_idempotent () =
  let engine = Sim.Engine.create () in
  let handle = Sim.Engine.schedule_at engine ~time:1.0 (fun () -> ()) in
  Sim.Engine.cancel engine handle;
  Sim.Engine.cancel engine handle;
  Alcotest.(check int) "pending not negative" 0 (Sim.Engine.pending engine)

let test_past_scheduling_rejected () =
  let engine = Sim.Engine.create () in
  ignore (Sim.Engine.schedule_at engine ~time:2.0 (fun () -> ()));
  Sim.Engine.run engine;
  Alcotest.check_raises "past" (Invalid_argument
    "Engine.schedule_at: time 1 is before now 2")
    (fun () -> ignore (Sim.Engine.schedule_at engine ~time:1.0 (fun () -> ())))

let test_negative_delay_rejected () =
  let engine = Sim.Engine.create () in
  Alcotest.check_raises "negative"
    (Invalid_argument "Engine.schedule_after: negative delay") (fun () ->
      ignore (Sim.Engine.schedule_after engine ~delay:(-1.0) (fun () -> ())))

let test_run_until () =
  let engine = Sim.Engine.create () in
  let fired = ref [] in
  List.iter
    (fun t ->
      ignore
        (Sim.Engine.schedule_at engine ~time:t (fun () -> fired := t :: !fired)))
    [ 1.0; 2.0; 3.0 ];
  Sim.Engine.run_until engine ~time:2.5;
  Alcotest.(check (list (float 1e-9))) "only early" [ 1.0; 2.0 ] (List.rev !fired);
  Alcotest.(check (float 1e-9)) "clock advanced to bound" 2.5 (Sim.Engine.now engine);
  Sim.Engine.run_until engine ~time:5.0;
  Alcotest.(check (list (float 1e-9))) "rest" [ 1.0; 2.0; 3.0 ] (List.rev !fired)

let test_run_until_rejects_bad_horizon () =
  (* Unguarded, a NaN horizon would drain forever and -T would run up
     to +T: the time encoding is monotone only for non-negative times. *)
  let engine = Sim.Engine.create () in
  let fired = ref 0 in
  ignore (Sim.Engine.schedule_at engine ~time:1.0 (fun () -> incr fired));
  Alcotest.check_raises "NaN"
    (Invalid_argument "Engine.run_until: time nan is negative or NaN")
    (fun () -> Sim.Engine.run_until engine ~time:Float.nan);
  Alcotest.check_raises "negative"
    (Invalid_argument "Engine.run_until: time -5 is negative or NaN")
    (fun () -> Sim.Engine.run_until engine ~time:(-5.0));
  Alcotest.(check int) "nothing fired" 0 !fired;
  Alcotest.(check (float 0.0)) "clock untouched" 0.0 (Sim.Engine.now engine)

let test_stop () =
  let engine = Sim.Engine.create () in
  let count = ref 0 in
  for _ = 1 to 5 do
    ignore
      (Sim.Engine.schedule_after engine ~delay:1.0 (fun () ->
           incr count;
           if !count = 2 then Sim.Engine.stop engine))
  done;
  Sim.Engine.run engine;
  Alcotest.(check int) "stopped after 2" 2 !count

let test_stop_during_run_until () =
  (* A stop mid-run must leave the clock at the last fired event; the
     old behaviour jumped it to the requested bound, fabricating an
     idle period that never executed. *)
  let engine = Sim.Engine.create () in
  ignore (Sim.Engine.schedule_at engine ~time:1.0 (fun () -> Sim.Engine.stop engine));
  let late = ref false in
  ignore (Sim.Engine.schedule_at engine ~time:2.0 (fun () -> late := true));
  Sim.Engine.run_until engine ~time:10.0;
  Alcotest.(check bool) "later event not fired" false !late;
  Alcotest.(check (float 1e-9)) "clock at stop point" 1.0 (Sim.Engine.now engine)

let test_cancel_after_fire () =
  (* Regression: cancelling a handle whose event already fired used to
     decrement the live count again, driving [pending] negative. *)
  let engine = Sim.Engine.create () in
  let handle = Sim.Engine.schedule_at engine ~time:1.0 (fun () -> ()) in
  Sim.Engine.run engine;
  Sim.Engine.cancel engine handle;
  Alcotest.(check int) "pending not negative" 0 (Sim.Engine.pending engine);
  ignore (Sim.Engine.schedule_at engine ~time:2.0 (fun () -> ()));
  Sim.Engine.cancel engine handle;
  Alcotest.(check int) "later events unaffected" 1 (Sim.Engine.pending engine)

let test_schedule_unit () =
  (* Fire-and-forget events interleave with handle events in the same
     (time, insertion) order, and record recycling across many
     generations does not disturb it. *)
  let engine = Sim.Engine.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  Sim.Engine.schedule_unit engine ~delay:1.0 (note "u1");
  ignore (Sim.Engine.schedule_after engine ~delay:1.0 (note "h1"));
  Sim.Engine.schedule_unit engine ~delay:1.0 (note "u2");
  Alcotest.(check int) "all pending" 3 (Sim.Engine.pending engine);
  Sim.Engine.run engine;
  Alcotest.(check (list string)) "fifo" [ "u1"; "h1"; "u2" ] (List.rev !log);
  Alcotest.(check int) "drained" 0 (Sim.Engine.pending engine);
  let count = ref 0 in
  let rec chain () =
    incr count;
    if !count < 1000 then Sim.Engine.schedule_unit engine ~delay:0.5 chain
  in
  Sim.Engine.schedule_unit engine ~delay:0.5 chain;
  Sim.Engine.run engine;
  Alcotest.(check int) "recycled chain" 1000 !count

let test_schedule_unit_rejects_past () =
  let engine = Sim.Engine.create () in
  ignore (Sim.Engine.schedule_at engine ~time:2.0 (fun () -> ()));
  Sim.Engine.run engine;
  Alcotest.check_raises "past" (Invalid_argument
    "Engine.schedule_at: time 1 is before now 2")
    (fun () -> Sim.Engine.schedule_unit_at engine ~time:1.0 (fun () -> ()));
  Alcotest.check_raises "negative"
    (Invalid_argument "Engine.schedule_unit: negative delay") (fun () ->
      Sim.Engine.schedule_unit engine ~delay:(-1.0) (fun () -> ()))

(* The int time path: the encoding orders like the times and inverts
   exactly, scheduling by bits fires at the decoded time, and the bits
   entry points refuse what the float ones refuse — NaN (which encodes
   above +infinity) and times before now. *)
let test_schedule_by_bits () =
  let times = [ 0.0; 1e-300; 0.008; 1.0; 2.0; 3.5; 1e300; infinity ] in
  List.iter
    (fun time ->
      Alcotest.(check (float 0.0)) "round trip" time
        (Sim.Engine.time_of_bits (Sim.Engine.bits_of_time time)))
    times;
  let bits = List.map Sim.Engine.bits_of_time times in
  Alcotest.(check bool) "order kept" true (List.sort compare bits = bits);
  let engine = Sim.Engine.create () in
  let fired = ref [] in
  let at time =
    Sim.Engine.schedule_unit_at_bits engine ~bits:(Sim.Engine.bits_of_time time)
      (fun () -> fired := Sim.Engine.now engine :: !fired)
  in
  at 2.0;
  at 0.5;
  Sim.Engine.run_until engine ~time:1.0;
  Alcotest.(check int) "clock bits" (Sim.Engine.bits_of_time 1.0)
    (Sim.Engine.now_bits engine);
  Alcotest.(check int) "after" (Sim.Engine.bits_of_time 1.25)
    (Sim.Engine.bits_after engine ~delay:0.25);
  let refused label bits =
    match Sim.Engine.schedule_unit_at_bits engine ~bits ignore with
    | () -> Alcotest.failf "%s accepted" label
    | exception Invalid_argument _ -> ()
  in
  refused "NaN" (Sim.Engine.bits_of_time nan);
  refused "-NaN" (Sim.Engine.bits_of_time (-.nan));
  refused "past" (Sim.Engine.bits_of_time 0.75);
  List.iter
    (fun delay ->
      Alcotest.check_raises "bits_after"
        (Invalid_argument "Engine.bits_after: delay is negative or NaN")
        (fun () -> ignore (Sim.Engine.bits_after engine ~delay : int)))
    [ -0.5; nan ];
  Sim.Engine.run engine;
  Alcotest.(check (list (float 0.0))) "fired at the decoded times" [ 2.0; 0.5 ]
    !fired

(* Differential property: the engine fires exactly what the test-only
   [Reference_queue] fires — same (time, id) sequence, same [pending]
   at every [run_until] boundary, same final clock — over random
   programs of handle and fire-and-forget schedules, events that
   schedule, cancel or stop from inside the run, top-level cancels
   (stale handles included, once their slots are recycled) and
   interleaved [run_until]s. Three time regimes: quarter-second quanta
   (many equal-time ties), log-uniform offsets over seven orders of
   magnitude (the calendar's far-future jump and width re-estimates),
   and 2,000+ event populations (several grows, shrinks while
   draining). *)

module type QUEUE = sig
  type t
  type handle

  val create : unit -> t
  val now : t -> float
  val schedule_at : t -> time:float -> (unit -> unit) -> handle
  val schedule_after : t -> delay:float -> (unit -> unit) -> handle
  val schedule_unit_at : t -> time:float -> (unit -> unit) -> unit
  val schedule_unit : t -> delay:float -> (unit -> unit) -> unit
  val cancel : t -> handle -> unit
  val pending : t -> int
  val run : t -> unit
  val run_until : t -> time:float -> unit
  val stop : t -> unit
end

(* Offsets are relative to the clock when the op runs. *)
type op =
  | At of float  (** schedule_at, keeping the handle *)
  | After of float  (** schedule_after, keeping the handle *)
  | Unit_at of float  (** schedule_unit_at *)
  | Unit of float  (** schedule_unit *)
  | Nested of float * float
      (** an event that schedules a handled child [d] after itself *)
  | Cancel of int  (** cancel the k-th handle (mod count) now *)
  | Cancel_from of float * int  (** an event that cancels the k-th handle *)
  | Stop_from of float  (** an event that stops the current run *)
  | Run_until of float

type observation = Fired of float * int | Pending of int

module Replay (Q : QUEUE) = struct
  let run ops =
    let q = Q.create () in
    let log = ref [] in
    let handles = ref [] and count = ref 0 in
    let keep handle =
      handles := handle :: !handles;
      incr count
    in
    let cancel k =
      if !count > 0 then Q.cancel q (List.nth !handles (k mod !count))
    in
    let note id () = log := Fired (Q.now q, id) :: !log in
    let at dt = Q.now q +. dt in
    List.iteri
      (fun id op ->
        match op with
        | At dt -> keep (Q.schedule_at q ~time:(at dt) (note id))
        | After dt -> keep (Q.schedule_after q ~delay:dt (note id))
        | Unit_at dt -> Q.schedule_unit_at q ~time:(at dt) (note id)
        | Unit dt -> Q.schedule_unit q ~delay:dt (note id)
        | Nested (dt, d) ->
          Q.schedule_unit_at q ~time:(at dt) (fun () ->
              note id ();
              keep (Q.schedule_at q ~time:(at d) (note (-1 - id))))
        | Cancel k -> cancel k
        | Cancel_from (dt, k) ->
          Q.schedule_unit_at q ~time:(at dt) (fun () ->
              note id ();
              cancel k)
        | Stop_from dt ->
          Q.schedule_unit_at q ~time:(at dt) (fun () ->
              note id ();
              Q.stop q)
        | Run_until dt ->
          Q.run_until q ~time:(at dt);
          log := Pending (Q.pending q) :: !log)
      ops;
    Q.run q;
    (List.rev !log, Q.pending q, Q.now q)
end

module Engine_replay = Replay (Sim.Engine)
module Reference_replay = Replay (Reference_queue)

let gen_schedule offset =
  let open QCheck2.Gen in
  frequency
    [
      (3, map (fun t -> At t) offset);
      (1, map (fun t -> After t) offset);
      (4, map (fun t -> Unit_at t) offset);
      (3, map (fun t -> Unit t) offset);
      (2, map2 (fun t d -> Nested (t, d)) offset offset);
    ]

let gen_op offset =
  let open QCheck2.Gen in
  frequency
    [
      (13, gen_schedule offset);
      (2, map (fun k -> Cancel k) nat);
      (1, map2 (fun t k -> Cancel_from (t, k)) offset nat);
      (1, map (fun t -> Stop_from t) offset);
      (1, map (fun t -> Run_until t) offset);
    ]

let gen_programs =
  let open QCheck2.Gen in
  let quarter_seconds = map (fun k -> float_of_int k /. 4.0) (int_range 0 12) in
  let seven_decades = map (fun e -> 10.0 ** e) (float_range (-3.0) 4.0) in
  let uniform = float_bound_inclusive 100.0 in
  oneof
    [
      list_size (int_range 1 200) (gen_op quarter_seconds);
      list_size (int_range 1 300) (gen_op seven_decades);
      (* At least 2,000 events queued at once, then a mixed tail whose
         run_untils drain (and shrink) the table while new schedules
         regrow it. Not shrunk: almost every cut shrinks the table
         below the size that fails, so shrinking would run for
         minutes. *)
      no_shrink
        (map2 ( @ )
           (list_size (int_range 2_000 2_500) (gen_schedule uniform))
           (list_size (int_range 200 600) (gen_op uniform)));
    ]

let prop_engine_matches_reference =
  QCheck2.Test.make ~name:"matches the reference queue" ~count:300 gen_programs
    (fun ops -> Engine_replay.run ops = Reference_replay.run ops)

let prop_random_schedule_fires_in_order =
  QCheck2.Test.make ~name:"random schedules fire in time order" ~count:300
    QCheck2.Gen.(list_size (int_range 1 60) (float_bound_inclusive 100.0))
    (fun times ->
      let engine = Sim.Engine.create () in
      let fired = ref [] in
      List.iter
        (fun time ->
          ignore
            (Sim.Engine.schedule_at engine ~time (fun () ->
                 fired := Sim.Engine.now engine :: !fired)))
        times;
      Sim.Engine.run engine;
      List.rev !fired = List.sort compare times)

let test_timer_basic () =
  let engine = Sim.Engine.create () in
  let fired = ref 0.0 in
  let timer =
    Sim.Timer.create engine ~callback:(fun () -> fired := Sim.Engine.now engine)
  in
  Sim.Timer.start timer ~after:2.0;
  Alcotest.(check bool) "armed" true (Sim.Timer.is_armed timer);
  Sim.Engine.run engine;
  Alcotest.(check (float 1e-9)) "fired at 2" 2.0 !fired;
  Alcotest.(check bool) "disarmed after fire" false (Sim.Timer.is_armed timer)

let test_timer_restart () =
  let engine = Sim.Engine.create () in
  let fired = ref [] in
  let timer =
    Sim.Timer.create engine ~callback:(fun () ->
        fired := Sim.Engine.now engine :: !fired)
  in
  Sim.Timer.start timer ~after:2.0;
  ignore
    (Sim.Engine.schedule_at engine ~time:1.0 (fun () ->
         Sim.Timer.restart timer ~after:2.0));
  Sim.Engine.run engine;
  Alcotest.(check (list (float 1e-9))) "only the restarted expiry" [ 3.0 ] !fired

let test_timer_cancel () =
  let engine = Sim.Engine.create () in
  let fired = ref false in
  let timer = Sim.Timer.create engine ~callback:(fun () -> fired := true) in
  Sim.Timer.start timer ~after:1.0;
  Sim.Timer.cancel timer;
  Sim.Engine.run engine;
  Alcotest.(check bool) "cancelled" false !fired;
  (* Cancelling when idle is a no-op. *)
  Sim.Timer.cancel timer

let test_timer_double_start_rejected () =
  let engine = Sim.Engine.create () in
  let timer = Sim.Timer.create engine ~callback:(fun () -> ()) in
  Sim.Timer.start timer ~after:1.0;
  Alcotest.check_raises "double start"
    (Invalid_argument "Timer.start: already armed") (fun () ->
      Sim.Timer.start timer ~after:2.0)

let test_timer_expiry () =
  let engine = Sim.Engine.create () in
  let timer = Sim.Timer.create engine ~callback:(fun () -> ()) in
  Alcotest.(check bool) "no expiry when idle" true (Sim.Timer.expiry timer = None);
  Sim.Timer.start timer ~after:4.0;
  Alcotest.(check bool) "expiry time" true (Sim.Timer.expiry timer = Some 4.0)

let suite =
  [
    ( "engine",
      [
        Alcotest.test_case "time order" `Quick test_runs_in_time_order;
        Alcotest.test_case "simultaneous fifo" `Quick test_simultaneous_fifo;
        Alcotest.test_case "schedule during run" `Quick test_schedule_during_run;
        Alcotest.test_case "cancel" `Quick test_cancel;
        Alcotest.test_case "cancel idempotent" `Quick test_cancel_idempotent;
        Alcotest.test_case "past rejected" `Quick test_past_scheduling_rejected;
        Alcotest.test_case "negative delay rejected" `Quick
          test_negative_delay_rejected;
        Alcotest.test_case "run_until" `Quick test_run_until;
        Alcotest.test_case "run_until rejects NaN and negative" `Quick
          test_run_until_rejects_bad_horizon;
        Alcotest.test_case "stop" `Quick test_stop;
        Alcotest.test_case "stop during run_until" `Quick
          test_stop_during_run_until;
        Alcotest.test_case "cancel after fire" `Quick test_cancel_after_fire;
        Alcotest.test_case "schedule_unit" `Quick test_schedule_unit;
        Alcotest.test_case "schedule_unit rejects past" `Quick
          test_schedule_unit_rejects_past;
        Alcotest.test_case "schedule by time bits" `Quick test_schedule_by_bits;
        Qcheck_seed.to_alcotest prop_engine_matches_reference;
        Qcheck_seed.to_alcotest prop_random_schedule_fires_in_order;
      ] );
    ( "timer",
      [
        Alcotest.test_case "basic" `Quick test_timer_basic;
        Alcotest.test_case "restart" `Quick test_timer_restart;
        Alcotest.test_case "cancel" `Quick test_timer_cancel;
        Alcotest.test_case "double start" `Quick test_timer_double_start_rejected;
        Alcotest.test_case "expiry" `Quick test_timer_expiry;
      ] );
  ]

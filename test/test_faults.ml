(* Fault-injection subsystem tests, in three layers:

   - schedules: the pure timelines (explicit, periodic, random) and
     their validation;
   - mechanisms: flap drop/hold semantics against a live link, the
     reorder hold-back bound, and the FIFO guarantee of jitter — all
     deterministic under a fixed RNG;
   - properties: any fault spec the generator produces leaves the
     runtime auditor clean, a faulted scenario's JSONL trace is
     deterministic, and two fault-free traces match pinned digests. *)

let packet ?(flow = 0) ?(size = 1000) seq =
  Net.Packet.data ~uid:seq ~flow ~seq ~size_bytes:size ~born:0.0

let times schedule =
  List.map
    (fun tr -> tr.Faults.Schedule.at)
    (Faults.Schedule.transitions schedule)

(* -- schedules -- *)

let test_of_flaps () =
  let s = Faults.Schedule.of_flaps [ (2.0, 2.5); (8.0, 9.0) ] in
  Alcotest.(check (list (float 1e-9))) "transition times" [ 2.0; 2.5; 8.0; 9.0 ]
    (times s);
  Alcotest.(check (list bool)) "down/up alternation" [ false; true; false; true ]
    (List.map (fun tr -> tr.Faults.Schedule.up) (Faults.Schedule.transitions s));
  Alcotest.(check bool) "empty" true (Faults.Schedule.is_empty (Faults.Schedule.of_flaps []));
  Alcotest.check_raises "up before down"
    (Invalid_argument "Schedule.of_flaps: up_at <= down_at") (fun () ->
      ignore (Faults.Schedule.of_flaps [ (2.0, 2.0) ]));
  Alcotest.check_raises "overlapping outages"
    (Invalid_argument "Schedule.of_flaps: flaps not strictly increasing")
    (fun () -> ignore (Faults.Schedule.of_flaps [ (2.0, 3.0); (2.5, 4.0) ]));
  Alcotest.check_raises "negative time"
    (Invalid_argument "Schedule.of_flaps: negative time") (fun () ->
      ignore (Faults.Schedule.of_flaps [ (-1.0, 1.0) ]))

let test_periodic () =
  let s = Faults.Schedule.periodic ~period:5.0 ~down_for:0.3 ~until:12.0 () in
  Alcotest.(check (list (float 1e-9))) "handoff every 5 s" [ 5.0; 5.3; 10.0; 10.3 ]
    (times s);
  (* A restore falling past [until] is still emitted, clamped to
     [until] so it fires within a horizon-bounded run: the link never
     ends a schedule stuck down. *)
  let s = Faults.Schedule.periodic ~period:5.0 ~down_for:2.0 ~until:11.5 () in
  Alcotest.(check (list (float 1e-9))) "straddling restore clamped to until"
    [ 5.0; 7.0; 10.0; 11.5 ] (times s);
  Alcotest.check_raises "down_for >= period"
    (Invalid_argument "Schedule.periodic: need 0 < down_for < period")
    (fun () ->
      ignore (Faults.Schedule.periodic ~period:1.0 ~down_for:1.0 ~until:5.0 ()))

(* Regression for the truncation edge: with an outage straddling the
   schedule horizon, a link flapped under the schedule and run exactly
   to that horizon must end the run administratively up — the clamped
   restore is the run's final event. Same shape for [random]. *)
let test_truncated_schedule_restores_link () =
  let check_restored name schedule ~until =
    let engine = Sim.Engine.create () in
    let injector = Faults.Injector.create ~engine () in
    let link =
      Net.Link.create ~engine ~bandwidth_bps:(Sim.Units.mbps 0.8) ~delay:0.001
        ~queue:(Net.Droptail.create ~capacity:8 ())
        ~dst:ignore ()
    in
    Faults.Injector.flap_link injector ~name ~policy:`Hold_queued link schedule;
    Sim.Engine.run_until engine ~time:until;
    Alcotest.(check bool) (name ^ ": link up at horizon") true
      (Net.Link.is_up link)
  in
  (* Periodic: down at 10, down_for 2 straddles until = 11.5. *)
  check_restored "periodic"
    (Faults.Schedule.periodic ~period:5.0 ~down_for:2.0 ~until:11.5 ())
    ~until:11.5;
  (* Random: long mean_down forces the first outage to straddle. *)
  let rng = Sim.Rng.create 7L in
  check_restored "random"
    (Faults.Schedule.random ~rng ~mean_up:1.0 ~mean_down:1000.0 ~until:10.0 ())
    ~until:10.0

let test_random_schedule () =
  let build seed =
    Faults.Schedule.random ~rng:(Sim.Rng.create seed) ~mean_up:3.0
      ~mean_down:0.5 ~until:60.0 ()
  in
  let a = Faults.Schedule.transitions (build 7L) in
  Alcotest.(check bool) "non-trivial" true (List.length a >= 4);
  Alcotest.(check bool) "equal seeds, equal schedules" true
    (a = Faults.Schedule.transitions (build 7L));
  Alcotest.(check bool) "distinct seeds differ" true
    (a <> Faults.Schedule.transitions (build 8L));
  let rec alternating expected_up = function
    | [] -> true
    | tr :: rest ->
      tr.Faults.Schedule.up = expected_up && alternating (not expected_up) rest
  in
  Alcotest.(check bool) "starts down, alternates" true (alternating false a);
  let ts = List.map (fun tr -> tr.Faults.Schedule.at) a in
  Alcotest.(check bool) "strictly increasing" true
    (List.for_all2 (fun x y -> x < y) (List.filteri (fun i _ -> i < List.length ts - 1) ts)
       (List.tl ts))

(* -- mechanisms -- *)

(* 0.8 Mbps and 1000-byte packets: 10 ms serialization. Five packets
   sent at t=0; the link goes down at 15 ms, when packet 1 has been
   delivered, packet 2 is on the wire, and 3..5 sit in the queue. *)
let flap_fixture ~policy =
  let engine = Sim.Engine.create () in
  let injector = Faults.Injector.create ~engine () in
  let arrivals = ref [] in
  let queue = Net.Droptail.create ~capacity:8 () in
  let link =
    Net.Link.create ~engine ~bandwidth_bps:(Sim.Units.mbps 0.8) ~delay:0.001
      ~queue
      ~dst:(fun p -> arrivals := Net.Packet.seq_exn p :: !arrivals)
      ()
  in
  let events = ref [] in
  Faults.Injector.subscribe injector (fun ~time:_ event -> events := event :: !events);
  Faults.Injector.flap_link injector ~name:"trunk" ~policy link
    (Faults.Schedule.of_flaps [ (0.015, 1.0) ]);
  Sim.Engine.schedule_at engine ~time:0.0 (fun () ->
      for seq = 1 to 5 do
        Net.Link.send link (packet seq)
      done);
  Sim.Engine.run engine;
  (injector, List.rev !arrivals, List.rev !events)

let test_flap_drop_queued () =
  let injector, arrivals, events = flap_fixture ~policy:`Drop_queued in
  Alcotest.(check (list int)) "only pre-outage packets survive" [ 1; 2 ] arrivals;
  Alcotest.(check int) "one down transition" 1 (Faults.Injector.downs injector);
  Alcotest.(check int) "backlog dropped" 3 (Faults.Injector.fault_drops injector);
  let drop_seqs =
    List.filter_map
      (function
        | Faults.Injector.Fault_drop { packet; _ } ->
          Some (Net.Packet.seq_exn packet)
        | _ -> None)
      events
  in
  Alcotest.(check (list int)) "drops evented in queue order" [ 3; 4; 5 ] drop_seqs;
  Alcotest.(check bool) "down evented" true
    (List.exists (function Faults.Injector.Link_down _ -> true | _ -> false) events);
  Alcotest.(check bool) "up evented" true
    (List.exists (function Faults.Injector.Link_up _ -> true | _ -> false) events)

let test_flap_hold_queued () =
  let injector, arrivals, _ = flap_fixture ~policy:`Hold_queued in
  Alcotest.(check (list int)) "backlog survives the outage" [ 1; 2; 3; 4; 5 ]
    arrivals;
  Alcotest.(check int) "nothing dropped" 0 (Faults.Injector.fault_drops injector)

(* Feed [n] packets one millisecond apart through a wrapper built by
   [wrap], recording each (arrival_time, seq). *)
let run_wrapped ~seed ~n wrap =
  let engine = Sim.Engine.create () in
  let injector = Faults.Injector.create ~engine () in
  let rng = Sim.Rng.create seed in
  let arrivals = ref [] in
  let next p =
    arrivals := (Sim.Engine.now engine, Net.Packet.seq_exn p) :: !arrivals
  in
  let consumer = wrap injector rng next in
  for i = 0 to n - 1 do
    Sim.Engine.schedule_at engine
      ~time:(0.001 *. float_of_int i)
      (fun () -> consumer (packet i))
  done;
  Sim.Engine.run engine;
  (injector, List.rev !arrivals)

let test_reorder () =
  let max_extra = 0.05 in
  let wrap injector rng next =
    Faults.Injector.reorder injector ~path:"test" ~rng ~prob:0.5 ~max_extra next
  in
  let injector, arrivals = run_wrapped ~seed:42L ~n:50 wrap in
  Alcotest.(check int) "every packet delivered" 50 (List.length arrivals);
  Alcotest.(check bool) "some packets held" true
    (Faults.Injector.reordered injector > 0);
  Alcotest.(check bool) "order actually perturbed" true
    (List.map snd arrivals <> List.sort compare (List.map snd arrivals));
  List.iter
    (fun (t, seq) ->
      let sent = 0.001 *. float_of_int seq in
      Alcotest.(check bool) "within the hold-back bound" true
        (t >= sent -. 1e-9 && t <= sent +. max_extra +. 1e-9))
    arrivals;
  let _, again = run_wrapped ~seed:42L ~n:50 wrap in
  Alcotest.(check bool) "same seed, same arrival sequence" true
    (arrivals = again);
  let _, other = run_wrapped ~seed:43L ~n:50 wrap in
  Alcotest.(check bool) "different seed differs" true (arrivals <> other)

let test_jitter_preserves_fifo () =
  let max_jitter = 0.05 in
  let wrap injector rng next =
    Faults.Injector.jitter injector ~rng ~max_jitter next
  in
  let injector, arrivals = run_wrapped ~seed:42L ~n:50 wrap in
  Alcotest.(check int) "every packet counted" 50
    (Faults.Injector.jittered injector);
  Alcotest.(check (list int)) "FIFO order preserved"
    (List.init 50 Fun.id)
    (List.map snd arrivals);
  ignore
    (List.fold_left
       (fun prev (t, seq) ->
         Alcotest.(check bool) "delivery times non-decreasing" true (t >= prev);
         let sent = 0.001 *. float_of_int seq in
         Alcotest.(check bool) "delay within bound" true
           (t >= sent -. 1e-9 && t <= sent +. max_jitter +. 1e-9);
         t)
       0.0 arrivals)

(* -- the spec DSL -- *)

let spec_of s =
  match Faults.Spec.of_string s with
  | Ok spec -> spec
  | Error message -> Alcotest.failf "%S failed to parse: %s" s message

let test_spec_parse () =
  Alcotest.(check bool) "empty string is none" true
    (Faults.Spec.is_none (spec_of ""));
  Alcotest.(check string) "none renders empty" "" (Faults.Spec.to_string Faults.Spec.none);
  let spec = spec_of "drop,flap:4+0.5" in
  (match spec.Faults.Spec.flaps with
  | Some (Faults.Spec.Periodic { period; down_for }) ->
    Alcotest.(check (float 1e-9)) "period" 4.0 period;
    Alcotest.(check (float 1e-9)) "down_for" 0.5 down_for
  | _ -> Alcotest.fail "expected a periodic flap");
  Alcotest.(check bool) "drop policy" true
    (spec.Faults.Spec.flap_policy = `Drop_queued);
  Alcotest.(check string) "canonical clause order" "flap:4+0.5,drop"
    (Faults.Spec.to_string spec);
  let spec = spec_of "reorder:0.05" in
  (match spec.Faults.Spec.reorder with
  | Some { Faults.Spec.prob; max_extra } ->
    Alcotest.(check (float 1e-9)) "prob" 0.05 prob;
    Alcotest.(check (float 1e-9)) "default hold-back"
      Faults.Spec.default_reorder_extra max_extra
  | None -> Alcotest.fail "expected reorder");
  (match (spec_of "flap:rand:10+1").Faults.Spec.flaps with
  | Some (Faults.Spec.Random { mean_up; mean_down }) ->
    Alcotest.(check (float 1e-9)) "mean up" 10.0 mean_up;
    Alcotest.(check (float 1e-9)) "mean down" 1.0 mean_down
  | _ -> Alcotest.fail "expected a random flap");
  match (spec_of "flap:@2+2.5@8+9").Faults.Spec.flaps with
  | Some (Faults.Spec.Explicit pairs) ->
    Alcotest.(check int) "two explicit outages" 2 (List.length pairs)
  | _ -> Alcotest.fail "expected explicit flaps"

let test_spec_roundtrip () =
  List.iter
    (fun s ->
      let spec = spec_of s in
      let rendered = Faults.Spec.to_string spec in
      Alcotest.(check bool)
        (Printf.sprintf "%S: render/parse is the identity" s)
        true
        (spec_of rendered = spec);
      Alcotest.(check string)
        (Printf.sprintf "%S: render is idempotent" s)
        rendered
        (Faults.Spec.to_string (spec_of rendered)))
    [
      "";
      "flap:4+0.5";
      "flap:4+0.5,drop";
      "hold,flap:4+0.5";
      "flap:rand:10+1";
      "flap:@2+2.5@8+9,drop";
      "reorder:0.05";
      "reorder:0.05:0.1";
      "jitter:0.01";
      "reverse,jitter:0.01,reorder:0.02,flap:5+0.3";
      "fade:2+1+0.5+0.25";
      "handover:10+0.5";
      "handover:10+0.5+1+0.3";
      "asym:20";
      "fade:2+0.5,handover:8+0.4,asym:10,flap:4+0.5,drop";
    ]

let test_spec_rejects_garbage () =
  List.iter
    (fun s ->
      match Faults.Spec.of_string s with
      | Ok _ -> Alcotest.failf "%S should not parse" s
      | Error message ->
        Alcotest.(check bool)
          (Printf.sprintf "%S error names the clause" s)
          true
          (String.length message > 0))
    [
      "bogus";
      "flap:zzz";
      "flap:4";
      "flap:0.5+4";
      (* down_for >= period *)
      "reorder:1.5";
      "reorder:-0.1";
      "jitter:0";
      "jitter:-1";
      "fade:2" (* needs at least one level *);
      "fade:0+0.5" (* period must be positive *);
      "fade:2+0" (* levels must be positive *);
      "handover:10" (* needs a gap *);
      "handover:1+2" (* gap must be < period *);
      "handover:10+0.5+0" (* levels must be positive *);
      "asym:0.5" (* ratio must be >= 1 *);
      "asym:zzz";
    ]

let test_spec_hostile_parse () =
  let spec = spec_of "fade:2+1+0.5+0.25" in
  (match spec.Faults.Spec.fade with
  | Some { Faults.Spec.fade_period; fade_levels } ->
    Alcotest.(check (float 1e-9)) "fade period" 2.0 fade_period;
    Alcotest.(check int) "fade levels" 3 (List.length fade_levels)
  | None -> Alcotest.fail "expected a fade clause");
  (match (spec_of "handover:10+0.5").Faults.Spec.handover with
  | Some { Faults.Spec.ho_period; ho_gap; ho_levels } ->
    Alcotest.(check (float 1e-9)) "handover period" 10.0 ho_period;
    Alcotest.(check (float 1e-9)) "handover gap" 0.5 ho_gap;
    Alcotest.(check bool) "default levels" true
      (ho_levels = Faults.Spec.default_handover_levels)
  | None -> Alcotest.fail "expected a handover clause");
  (match (spec_of "asym:20").Faults.Spec.asym with
  | Some ratio -> Alcotest.(check (float 1e-9)) "asym ratio" 20.0 ratio
  | None -> Alcotest.fail "expected an asym clause");
  Alcotest.(check bool) "hostile clauses are not none" false
    (Faults.Spec.is_none (spec_of "asym:20"));
  Alcotest.(check bool) "has_timeline on fade" true
    (Faults.Spec.has_timeline (spec_of "fade:2+0.5"));
  Alcotest.(check bool) "has_timeline off for flaps" false
    (Faults.Spec.has_timeline (spec_of "flap:4+0.5"))

(* -- the timeline step form (--link-schedule) -- *)

let timeline_of s =
  match Faults.Timeline.of_string s with
  | Ok t -> t
  | Error message -> Alcotest.failf "%S failed to parse: %s" s message

let test_timeline_string_form () =
  Alcotest.(check bool) "empty string is the empty timeline" true
    (Faults.Timeline.is_empty (timeline_of ""));
  let t = timeline_of "@2+400000@5+-+0.25@8+1e6+0.1" in
  (match Faults.Timeline.steps t with
  | [ s1; s2; s3 ] ->
    Alcotest.(check (float 1e-9)) "step 1 at" 2.0 s1.Faults.Timeline.at;
    Alcotest.(check bool) "step 1 rate" true
      (s1.Faults.Timeline.rate = Some 400000.0);
    Alcotest.(check bool) "step 1 delay unchanged" true
      (s1.Faults.Timeline.delay = None);
    Alcotest.(check bool) "step 2 rate unchanged" true
      (s2.Faults.Timeline.rate = None);
    Alcotest.(check bool) "step 2 delay" true
      (s2.Faults.Timeline.delay = Some 0.25);
    Alcotest.(check bool) "step 3 both" true
      (s3.Faults.Timeline.rate = Some 1e6
      && s3.Faults.Timeline.delay = Some 0.1)
  | steps -> Alcotest.failf "expected 3 steps, got %d" (List.length steps));
  List.iter
    (fun s ->
      let rendered = Faults.Timeline.to_string (timeline_of s) in
      Alcotest.(check string)
        (Printf.sprintf "%S: render is idempotent" s)
        rendered
        (Faults.Timeline.to_string (timeline_of rendered)))
    [ "@2+400000"; "@2+400000@5+-+0.25"; "@1+500000+0.05@2+250000" ];
  List.iter
    (fun s ->
      match Faults.Timeline.of_string s with
      | Ok _ -> Alcotest.failf "%S should not parse" s
      | Error message ->
        Alcotest.(check bool)
          (Printf.sprintf "%S error is descriptive" s)
          true
          (String.length message > 0))
    [
      "5+400000" (* missing '@' *);
      "@zzz+400000";
      "@5" (* no fields *);
      "@5+-" (* changes nothing *);
      "@5+0" (* rate must be positive *);
      "@5+-+-1" (* delay must be non-negative *);
      "@5+400000@2+500000" (* times must increase *);
    ]

(* NaN passes every [<] and [<=] range test, and infinity is no time
   or rate a link can use: both DSLs refuse any non-finite number, and
   the fault DSL refuses explicit outages [Schedule.of_flaps] would. *)
let test_non_finite_rejected () =
  List.iter
    (fun s ->
      match Faults.Spec.of_string s with
      | Ok _ -> Alcotest.failf "fault spec %S should not parse" s
      | Error _ -> ())
    [
      "asym:inf"; "jitter:inf"; "jitter:nan"; "fade:1+inf"; "fade:nan+1";
      "flap:inf+0.3"; "flap:rand:inf+1"; "handover:inf+0.3";
      "reorder:0.1:inf"; "flap:@5+2"; "flap:@1+2@1.5+3";
    ];
  List.iter
    (fun s ->
      match Faults.Timeline.of_string s with
      | Ok _ -> Alcotest.failf "timeline %S should not parse" s
      | Error _ -> ())
    [ "@nan+1"; "@1+nan"; "@1+-+nan"; "@inf+1"; "@1+inf"; "@1+-+inf"; "@-inf+1" ];
  Alcotest.check_raises "of_steps refuses a NaN rate"
    (Invalid_argument "Timeline.of_steps: rate <= 0") (fun () ->
      ignore
        (Faults.Timeline.of_steps
           [ { Faults.Timeline.at = 1.0; rate = Some Float.nan; delay = None } ]))

(* A finite fade level can still overflow the rate it scales: the
   timeline refuses the infinite step, and the scenario names the level
   before any run starts. *)
let test_fade_overflow_refused () =
  let overflow = "Timeline.of_steps: rate not finite" in
  Alcotest.check_raises "of_steps refuses an infinite rate"
    (Invalid_argument overflow) (fun () ->
      ignore
        (Faults.Timeline.of_steps
           [ { Faults.Timeline.at = 1.0; rate = Some Float.infinity; delay = None } ]));
  Alcotest.check_raises "fading refuses a level that overflows the rate"
    (Invalid_argument overflow) (fun () ->
      ignore
        (Faults.Timeline.fading ~period:1.0 ~base_bps:800_000.0
           ~levels:[ 1.0; 1e308 ] ~until:5.0 ()));
  let dumbbell =
    Experiments.Scenario.dumbbell (Net.Dumbbell.paper_config ~flows:1)
  in
  Alcotest.(check (option string))
    "the scenario names the overflowing level"
    (Some "faults: fade level 1e+308 takes a 800000 bps link to an infinite rate")
    (Experiments.Scenario.rate_overflow dumbbell (spec_of "fade:1+1+1e308"));
  Alcotest.(check (option string))
    "a large finite product is a rate" None
    (Experiments.Scenario.rate_overflow dumbbell (spec_of "fade:1+1e300"));
  Alcotest.check_raises "the run refuses it too" (Invalid_argument overflow)
    (fun () ->
      ignore
        (Experiments.Scenario.run
           (Experiments.Scenario.make ~topology:dumbbell
              ~flows:[ Experiments.Scenario.flow Core.Variant.Rr ]
              ~duration:5.0 ~faults:(spec_of "fade:1+1e308") ())))

(* -- properties over whole scenarios -- *)

let run_faulted ?(variant = Core.Variant.Rr) ?(seed = 7L) ?(duration = 5.0)
    ?trace_out spec_string =
  let faults = spec_of spec_string in
  let config = Net.Dumbbell.paper_config ~flows:2 in
  Experiments.Scenario.run
    (Experiments.Scenario.make ~topology:(Experiments.Scenario.dumbbell config)
       ~flows:
         [
           Experiments.Scenario.flow variant;
           Experiments.Scenario.flow Core.Variant.Newreno;
         ]
       ~params:{ Tcp.Params.default with rwnd = 20 }
       ~seed ~duration ~uniform_loss:0.01 ?trace_out ~faults ())

let test_faulted_scenarios_stay_clean () =
  List.iter
    (fun spec ->
      let t = run_faulted spec in
      Alcotest.(check bool)
        (Printf.sprintf "%S: auditor clean" spec)
        true
        (Audit.Auditor.ok t.Experiments.Scenario.auditor);
      Alcotest.(check bool)
        (Printf.sprintf "%S: checks ran" spec)
        true
        (Audit.Auditor.checks_run t.Experiments.Scenario.auditor > 1000))
    [
      "flap:2+0.3";
      "flap:2+0.3,drop";
      "flap:rand:2+0.5,drop";
      "reorder:0.1";
      "jitter:0.01,reverse";
      "flap:3+0.4,drop,reorder:0.05,jitter:0.005,reverse";
    ]

(* Property form: random flap/reorder/jitter parameters, random seed —
   the conservation, FIFO-per-flow and sender-window invariants must
   all hold with the injector active. *)
let prop_random_faults_stay_clean =
  QCheck2.Test.make ~name:"auditor finds no violations under random faults"
    ~count:15
    QCheck2.Gen.(
      tup4 (int_range 1 10_000)
        (oneofl [ "flap:%g+%g"; "flap:rand:%g+%g,drop"; "flap:%g+%g,drop" ])
        (tup2 (float_range 1.0 4.0) (float_range 0.1 0.8))
        (oneofl [ ""; ",reorder:0.05"; ",jitter:0.01"; ",reorder:0.1,reverse" ]))
    (fun (seed, flap_format, (period, down_for), extra) ->
      let spec =
        Printf.sprintf (Scanf.format_from_string flap_format "%g+%g") period
          down_for
        ^ extra
      in
      let t = run_faulted ~seed:(Int64.of_int seed) ~duration:3.0 spec in
      Audit.Auditor.ok t.Experiments.Scenario.auditor)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The JSONL bytes [run] writes to the trace channel it is given. *)
let trace_of run =
  let path = Filename.temp_file "rr-faults" ".jsonl" in
  let out = open_out path in
  ignore (run out : Experiments.Scenario.t);
  close_out out;
  let contents = read_file path in
  Sys.remove path;
  contents

let faulted_trace () =
  trace_of (fun out ->
      run_faulted ~trace_out:out "flap:1.5+0.3,drop,reorder:0.05,jitter:0.005")

let test_faulted_trace_deterministic () =
  let trace = faulted_trace () in
  Alcotest.(check bool) "trace non-trivial" true (String.length trace > 10_000);
  Alcotest.(check string) "same seed, same bytes" trace (faulted_trace ());
  List.iter
    (fun kind ->
      Alcotest.(check bool) ("trace carries " ^ kind) true
        (let pattern = Printf.sprintf {|"ev":"%s"|} kind in
         let plen = String.length pattern in
         let rec scan i =
           i + plen <= String.length trace
           && (String.sub trace i plen = pattern || scan (i + 1))
         in
         scan 0))
    [ "link_down"; "link_up"; "fault_drop"; "reorder" ]

(* Property: under an arbitrary rate/delay timeline, a link neither
   loses a packet (except by queue drop, which is counted) nor
   duplicates one, and deliveries stay FIFO — the [last_arrival] clamp
   must prevent a packet entering the wire after a delay *decrease*
   from overtaking one already propagating. *)
let prop_timeline_link_exactly_once_fifo =
  QCheck2.Test.make
    ~name:"time-varying link delivers exactly once, in FIFO order" ~count:30
    QCheck2.Gen.(
      tup3
        (list_size (int_range 1 6)
           (tup3
              (float_range 0.05 3.0)
              (float_range 20_000.0 2_000_000.0)
              (float_range 0.0 0.4)))
        (int_range 2 10) (int_range 10 60))
    (fun (steps, capacity, offered) ->
      let engine = Sim.Engine.create () in
      let dropped = ref 0 in
      let queue =
        Net.Droptail.create ~capacity ~on_drop:(fun _ -> incr dropped) ()
      in
      let delivered = ref [] in
      let link =
        Net.Link.create ~engine ~bandwidth_bps:(Sim.Units.mbps 0.8)
          ~delay:0.05 ~queue
          ~dst:(fun p -> delivered := Net.Packet.seq_exn p :: !delivered)
          ()
      in
      List.iter
        (fun (at, rate, delay) ->
          Sim.Engine.schedule_at engine ~time:at (fun () ->
              Net.Link.set_rate link rate;
              Net.Link.set_delay link delay))
        steps;
      for i = 0 to offered - 1 do
        Sim.Engine.schedule_at engine
          ~time:(0.004 *. float_of_int i)
          (fun () -> Net.Link.send link (packet i))
      done;
      Sim.Engine.run engine;
      let got = List.rev !delivered in
      List.length got + !dropped = offered
      (* Strictly increasing seqs = no duplicate, no overtaking; drops
         happen at enqueue, so deliveries are a subsequence of the
         offered order. *)
      && got = List.sort_uniq compare got)

(* Pinned event streams. The hostile-network machinery must cost
   nothing when unused: a run with no fault spec and no link schedule
   produces the same trace bytes as before the time-varying link work.
   The first digest pins the CLI's [run --variant rr --flows 2
   --duration 10 --loss 0.01 --seed 7 --trace ...] output. The second
   is an RR + SACK pair with 2% data loss and 1% ACK loss at seed 11,
   the one pinned trace with drops at the reverse-path tap. If an
   intentional trace-format change breaks them, re-record with [md5sum]
   on the trace files. *)
let clean_trace_digest = "907898842d385974aba2bb8934e5ac3a"

let ack_loss_trace_digest = "b0f212c2d34a8a1c6ef628f7ec10080a"

let test_clean_trace_byte_identity () =
  let rr_pair out =
    Experiments.Scenario.run
      (Experiments.Scenario.make
         ~topology:
           (Experiments.Scenario.dumbbell (Net.Dumbbell.paper_config ~flows:2))
         ~flows:
           [
             Experiments.Scenario.flow Core.Variant.Rr;
             Experiments.Scenario.flow Core.Variant.Rr;
           ]
         ~params:{ Tcp.Params.default with rwnd = 20 }
         ~seed:7L ~duration:10.0 ~uniform_loss:0.01 ~ack_loss:0.0
         ~delayed_ack:false ~monitor_queue:0.1 ~trace_out:out
         ~trace_format:`Jsonl ~faults:Faults.Spec.none ~audit_sample:1 ())
  in
  let rr_sack_with_ack_loss out =
    Experiments.Scenario.run
      (Experiments.Scenario.make
         ~topology:
           (Experiments.Scenario.dumbbell (Net.Dumbbell.paper_config ~flows:2))
         ~flows:
           [
             Experiments.Scenario.flow Core.Variant.Rr;
             Experiments.Scenario.flow Core.Variant.Sack;
           ]
         ~params:{ Tcp.Params.default with rwnd = 20 }
         ~seed:11L ~duration:10.0 ~uniform_loss:0.02 ~ack_loss:0.01
         ~trace_out:out ())
  in
  let digest run = Digest.to_hex (Digest.string (trace_of run)) in
  Alcotest.(check string) "clean trace digest unchanged" clean_trace_digest
    (digest rr_pair);
  Alcotest.(check string) "ACK-loss trace digest unchanged"
    ack_loss_trace_digest
    (digest rr_sack_with_ack_loss)

let suite =
  [
    ( "faults",
      [
        Alcotest.test_case "schedule of_flaps" `Quick test_of_flaps;
        Alcotest.test_case "schedule periodic" `Quick test_periodic;
        Alcotest.test_case "schedule random" `Quick test_random_schedule;
        Alcotest.test_case "truncated schedule restores link" `Quick
          test_truncated_schedule_restores_link;
        Alcotest.test_case "flap drops backlog" `Quick test_flap_drop_queued;
        Alcotest.test_case "flap holds backlog" `Quick test_flap_hold_queued;
        Alcotest.test_case "reorder bound + determinism" `Quick test_reorder;
        Alcotest.test_case "jitter preserves FIFO" `Quick
          test_jitter_preserves_fifo;
        Alcotest.test_case "spec parse" `Quick test_spec_parse;
        Alcotest.test_case "spec roundtrip" `Quick test_spec_roundtrip;
        Alcotest.test_case "spec rejects garbage" `Quick
          test_spec_rejects_garbage;
        Alcotest.test_case "spec hostile clauses" `Quick
          test_spec_hostile_parse;
        Alcotest.test_case "non-finite numbers rejected" `Quick
          test_non_finite_rejected;
        Alcotest.test_case "fade overflow refused" `Quick
          test_fade_overflow_refused;
        Alcotest.test_case "timeline string form" `Quick
          test_timeline_string_form;
        Alcotest.test_case "faulted scenarios stay clean" `Slow
          test_faulted_scenarios_stay_clean;
        Qcheck_seed.to_alcotest prop_random_faults_stay_clean;
        Qcheck_seed.to_alcotest prop_timeline_link_exactly_once_fifo;
        Alcotest.test_case "faulted trace deterministic" `Quick
          test_faulted_trace_deterministic;
        Alcotest.test_case "clean trace byte-identical" `Slow
          test_clean_trace_byte_identity;
      ] );
  ]

(* Campaign layer: grid expansion, the fork pool, the content-addressed
   result cache, cross-seed aggregation, and the experiment registry. *)

let tiny_grid ?(seed_count = 2) () =
  (* Small enough to keep the suite fast, lossy enough to exercise the
     recovery paths the metrics summarise. *)
  Campaign.Sweep.grid
    ~variants:Core.Variant.[ Newreno; Rr ]
    ~uniform_losses:[ 0.01 ] ~seed:11L ~seed_count ~duration:3.0 ~flows:2 ()

let temp_cache_dir () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "rr-campaign-test-%d-%d" (Unix.getpid ()) (Random.bits ()))
  in
  Campaign.Cache.create ~dir ()

(* -- grid expansion and job identity -- *)

let test_grid_expansion () =
  let grid =
    Campaign.Sweep.grid
      ~variants:Core.Variant.[ Reno; Rr ]
      ~gateways:[ Campaign.Job.Droptail 8; Campaign.Job.Red 25 ]
      ~uniform_losses:[ 0.0; 0.02 ] ~ack_losses:[ 0.0 ] ~seed_count:3 ()
  in
  let jobs = Campaign.Sweep.jobs_of_grid grid in
  Alcotest.(check int) "cartesian product size" (2 * 2 * 2 * 3)
    (List.length jobs);
  let digests = List.map Campaign.Job.digest jobs in
  Alcotest.(check int) "digests are pairwise distinct"
    (List.length jobs)
    (List.length (List.sort_uniq compare digests))

let test_digest_stability () =
  let job =
    {
      Campaign.Job.variant = Core.Variant.Rr;
      gateway = Campaign.Job.Droptail 8;
      topology = Campaign.Job.Dumbbell;
      uniform_loss = 0.02;
      ack_loss = 0.0;
      reorder = 0.0;
      flap_period = 0.0;
      cbr_share = 0.0;
      estimator = Tcp.Rto.Jacobson;
      rrr_level = 0.5;
      asym_ratio = 0.0;
      handover_period = 0.0;
      seed = 7L;
      duration = 20.0;
      flows = 2;
      rwnd = 20;
    }
  in
  Alcotest.(check string)
    "equal jobs hash equally" (Campaign.Job.digest job)
    (Campaign.Job.digest { job with seed = 7L });
  Alcotest.(check bool)
    "the seed is part of the key" true
    (Campaign.Job.digest job <> Campaign.Job.digest { job with seed = 8L });
  Alcotest.(check bool)
    "the gateway is part of the key" true
    (Campaign.Job.digest job
    <> Campaign.Job.digest { job with gateway = Campaign.Job.Red 8 });
  Alcotest.(check bool)
    "the RTO estimator is part of the key" true
    (Campaign.Job.digest job
    <> Campaign.Job.digest { job with estimator = Tcp.Rto.Rfc793 })

let test_axis_defaults () =
  Alcotest.(check bool)
    "the default grid starts with the default job" true
    (List.hd (Campaign.Sweep.jobs_of_grid (Campaign.Sweep.grid ()))
    = Campaign.Job.default);
  List.iter
    (fun (Campaign.Job.Axis a) ->
      match Campaign.Job.parse_values a a.Campaign.Job.default with
      | Error message -> Alcotest.failf "--%s default: %s" a.flag message
      | Ok values ->
        Alcotest.(check bool)
          (Printf.sprintf "--%s %s starts with the default job's value" a.flag
             a.default)
          true
          (List.hd values = a.get Campaign.Job.default);
        if a.optional then
          Alcotest.(check int)
            (Printf.sprintf "--%s defaults to its off value alone" a.flag)
            1 (List.length values))
    Campaign.Job.axes

(* The labelled lists are sugar for bindings; one axis binds once. *)
let test_bindings () =
  let losses = Campaign.Sweep.Bind (Campaign.Job.Axes.uniform_loss, [ 0.01 ]) in
  Alcotest.(check bool)
    "a binding expands as its labelled list" true
    (Campaign.Sweep.jobs_of_grid (Campaign.Sweep.grid ~bindings:[ losses ] ())
    = Campaign.Sweep.jobs_of_grid
        (Campaign.Sweep.grid ~uniform_losses:[ 0.01 ] ()));
  Alcotest.check_raises "an axis bound twice"
    (Invalid_argument "--loss is bound twice") (fun () ->
      ignore
        (Campaign.Sweep.grid ~uniform_losses:[ 0.02 ] ~bindings:[ losses ] ()))

(* Every bad input is refused when the grid is built, before any job
   runs, with a message naming the flag and the value. *)
let test_grid_validation () =
  let rejects message build =
    Alcotest.check_raises message (Invalid_argument message) (fun () ->
        ignore (build () : Campaign.Sweep.grid))
  in
  let grid = Campaign.Sweep.grid in
  rejects "--loss 1.5: must be within [0, 1]" (grid ~uniform_losses:[ 1.5 ]);
  rejects "--loss -0.1: must be within [0, 1]" (grid ~uniform_losses:[ -0.1 ]);
  rejects "--loss nan: must be within [0, 1]"
    (grid ~uniform_losses:[ Float.nan ]);
  rejects "--ack-loss 2: must be within [0, 1]" (grid ~ack_losses:[ 2.0 ]);
  rejects "--reorder -0.5: must be within [0, 1]" (grid ~reorders:[ -0.5 ]);
  rejects "--flap-period 0.2: must be 0 (off) or > 0.3"
    (grid ~flap_periods:[ 0.2 ]);
  rejects "--flap-period -1: must be 0 (off) or > 0.3"
    (grid ~flap_periods:[ -1.0 ]);
  rejects "--cbr-share -0.5: must be >= 0" (grid ~cbr_shares:[ -0.5 ]);
  rejects "--cbr-share inf: must be >= 0" (grid ~cbr_shares:[ Float.infinity ]);
  rejects "--rrr-levels 1.5: must be inside (0, 1)"
    (grid ~variants:[ Core.Variant.Reno ] ~rrr_levels:[ 1.5 ]);
  rejects "--asym-ratios 0.5: must be 0 (off) or >= 1"
    (grid ~asym_ratios:[ 0.5 ]);
  rejects "--asym-ratios 2: needs --topologies dumbbell"
    (grid ~asym_ratios:[ 2.0 ]
       ~topologies:[ Campaign.Job.Dumbbell; Campaign.Job.Parking_lot 2 ]);
  rejects "--handover-period 0.4: must be 0 (off) or > 0.4"
    (grid ~handover_periods:[ 0.4 ]);
  rejects "--duration nan: must be finite and >= 0" (grid ~duration:Float.nan);
  rejects "--duration -5: must be finite and >= 0" (grid ~duration:(-5.0));
  rejects "--flows 0: must be >= 1" (grid ~flows:0);
  rejects "--rwnd 0: must be >= 1" (grid ~rwnd:0);
  rejects "--seeds -1: must be >= 0" (grid ~seed_count:(-1))

(* The checks [rr-sim run] shares with the grid: the fields outside the
   axis table, the CBR share's clock and topology rules, and a renamed
   flag for a command whose flags differ from sweep's. *)
let test_job_validation () =
  let rejects ?flags message job =
    Alcotest.check_raises message (Invalid_argument message) (fun () ->
        Campaign.Job.validate ?flags job)
  in
  let job = Campaign.Job.default in
  rejects "--buffer 0: must be >= 1" { job with gateway = Campaign.Job.Red 0 };
  rejects "--flows 0: must be >= 1"
    { job with topology = Campaign.Job.Fat_tree 2; flows = 0 };
  rejects "--cbr-share 1e+300: too high: the CBR packet interval does not \
           advance the clock"
    { job with cbr_share = 1e300 };
  rejects "--cbr-share 0.1: needs a spare topology slot, which a fat tree lacks"
    { job with topology = Campaign.Job.Fat_tree 2; cbr_share = 0.1 };
  rejects ~flags:[ ("rrr_level", "rrr-level") ]
    "--rrr-level nan: must be inside (0, 1)"
    { job with rrr_level = Float.nan };
  rejects "--rrr-levels nan: must be inside (0, 1)"
    { job with rrr_level = Float.nan };
  Alcotest.check_raises "sweep --topologies fat-tree --cbr-share 0.1"
    (Invalid_argument
       "--cbr-share 0.1: needs a spare topology slot, which a fat tree lacks")
    (fun () ->
      ignore
        (Campaign.Sweep.grid
           ~topologies:[ Campaign.Job.Fat_tree 2 ]
           ~cbr_shares:[ 0.1 ] ()))

(* Route rows grow with routed nodes x nodes, so the topology strings
   cap their counts. *)
let test_topology_caps () =
  List.iter
    (fun (text, expected) ->
      Alcotest.(check (result string string))
        text expected
        (Result.map Campaign.Job.topology_name
           (Campaign.Job.topology_of_string text)))
    [
      ("parking-lot:64", Ok "parking-lot:64");
      ("fat-tree:64", Ok "fat-tree:64");
      ( "parking-lot:65",
        Error "topology \"parking-lot:65\" has 65 hops (at most 64)" );
      ("fat-tree:65", Error "topology \"fat-tree:65\" has 65 pods (at most 64)");
    ]

(* One topology vocabulary: sweep takes what run takes, and a fat-tree
   job runs pods x flows flows. *)
let test_fat_tree_jobs () =
  List.iter
    (fun (text, expected) ->
      Alcotest.(check (result string string))
        text expected
        (Result.map Campaign.Job.topology_name
           (Campaign.Job.topology_of_string text)))
    [
      ("fat-tree", Ok "fat-tree:2");
      ("fat-tree:3", Ok "fat-tree:3");
      ( "fat-tree:1",
        Error
          "invalid topology \"fat-tree:1\" (expected dumbbell, \
           parking-lot[:HOPS] or fat-tree[:PODS])" );
    ];
  let job =
    {
      Campaign.Job.default with
      topology = Campaign.Job.Fat_tree 3;
      flows = 1;
      duration = 2.0;
    }
  in
  let result = Campaign.Job.run job in
  Alcotest.(check int) "one row per host" 3
    (List.length result.Campaign.Job.flow_metrics);
  Alcotest.(check int) "audited clean" 0 result.Campaign.Job.audit_violations

(* Two jobs with one point label and seed would aggregate as one point
   with twice the seeds, shrinking its confidence interval. *)
let test_duplicate_points_rejected () =
  let duplicate label =
    Printf.sprintf
      "grid point %s, seed 7, appears twice: an axis lists values that label \
       alike"
      label
  in
  let rr = [ Core.Variant.Rr ] in
  Alcotest.check_raises "a repeated value"
    (Invalid_argument (duplicate "rr/droptail:8/loss 1%/ack 0%"))
    (fun () ->
      ignore
        (Campaign.Sweep.grid ~variants:rr ~uniform_losses:[ 0.01; 0.01 ] ()));
  Alcotest.check_raises "two values that label alike"
    (Invalid_argument (duplicate "rr/droptail:8/loss 1%/ack 0%"))
    (fun () ->
      ignore
        (Campaign.Sweep.grid ~variants:rr
           ~uniform_losses:[ 0.01; 0.0100000001 ] ()));
  Alcotest.check_raises "a repeated seed"
    (Invalid_argument (duplicate "rr/droptail:8/loss 2%/ack 0%"))
    (fun () -> ignore (Campaign.Sweep.grid ~variants:rr ~seeds:[ 7L; 7L ] ()))

(* -- the fork pool -- *)

let show_outcome = function
  | Campaign.Pool.Settled x -> string_of_int x
  | Campaign.Pool.Failed failure -> Campaign.Pool.failure_to_string failure
  | Campaign.Pool.Not_run -> "not run"

let test_pool_order_and_results () =
  let inputs = List.init 17 Fun.id in
  let expected = List.map (fun x -> string_of_int (x * x)) inputs in
  let run ?backend jobs =
    List.map show_outcome
      (Campaign.Pool.run ~jobs ?backend (fun x -> x * x) inputs)
  in
  Alcotest.(check (list string)) "parallel run preserves input order" expected
    (run 4);
  Alcotest.(check (list string)) "one worker agrees" expected (run 1);
  Alcotest.(check (list string)) "the serial loop agrees" expected
    (run ~backend:Campaign.Pool.Serial 1)

let test_pool_propagates_failure () =
  Alcotest.(check (list string))
    "a raising job is Failed (Crashed _) naming the exception; the others \
     settle"
    [ "0"; "1"; "crashed: Failure(\"boom\")"; "3" ]
    (List.map show_outcome
       (Campaign.Pool.run ~jobs:2
          (fun x -> if x = 2 then failwith "boom" else x)
          [ 0; 1; 2; 3 ]))

(* -- pool supervision: deadlines, retries, quarantine, chaos -- *)

let with_chaos plan f =
  Campaign.Pool.chaos := Some plan;
  Fun.protect ~finally:(fun () -> Campaign.Pool.chaos := None) f

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec loop i = i + n <= h && (String.sub haystack i n = needle || loop (i + 1)) in
  loop 0

let check_contains what needle haystack =
  if not (contains ~needle haystack) then
    Alcotest.failf "%s: %S not found in %S" what needle haystack

let test_chaos_spec_parsing () =
  (match Campaign.Pool.chaos_of_string "crash:1;hang:2*;trunc:0@2" with
  | Error message -> Alcotest.failf "parse failed: %s" message
  | Ok plan ->
    let check name expected index attempt =
      Alcotest.(check bool) name true (plan ~index ~attempt = expected)
    in
    check "crash on the first attempt" (Some Campaign.Pool.Crash) 1 1;
    check "crash clears on retry" None 1 2;
    check "hang on every attempt" (Some Campaign.Pool.Hang) 2 1;
    check "hang still on attempt 3" (Some Campaign.Pool.Hang) 2 3;
    check "truncate only on attempt 2" (Some Campaign.Pool.Truncate) 0 2;
    check "no truncate on attempt 1" None 0 1;
    check "untargeted jobs run clean" None 3 1);
  List.iter
    (fun spec ->
      Alcotest.(check bool)
        (Printf.sprintf "%S is rejected" spec)
        true
        (Result.is_error (Campaign.Pool.chaos_of_string spec)))
    [ "bogus"; "explode:1"; "crash:-1"; "crash:x"; "crash:1@0"; "" ]

let test_pool_worker_sigkilled () =
  with_chaos
    (fun ~index ~attempt:_ -> if index = 1 then Some Campaign.Pool.Crash else None)
  @@ fun () ->
  match Campaign.Pool.run ~jobs:2 (fun x -> x + 1) [ 10; 20; 30 ] with
  | [ Campaign.Pool.Settled 11; Failed (Crashed reason); Settled 31 ] ->
    check_contains "crash diagnostic names the signal" "SIGKILL" reason
  | _ -> Alcotest.fail "expected [Settled 11; Failed (Crashed _); Settled 31]"

let test_pool_hung_worker_times_out () =
  with_chaos
    (fun ~index ~attempt:_ -> if index = 0 then Some Campaign.Pool.Hang else None)
  @@ fun () ->
  let policy = { Campaign.Pool.default_policy with timeout = Some 0.4 } in
  match Campaign.Pool.run ~jobs:2 ~policy (fun x -> x * 2) [ 1; 2 ] with
  | [ Campaign.Pool.Failed (Timed_out deadline); Settled 4 ] ->
    Alcotest.(check (float 1e-9)) "reports the configured deadline" 0.4 deadline
  | _ -> Alcotest.fail "expected [Failed (Timed_out _); Settled 4]"

let test_pool_truncated_payload_is_a_crash () =
  with_chaos
    (fun ~index ~attempt:_ ->
      if index = 0 then Some Campaign.Pool.Truncate else None)
  @@ fun () ->
  match Campaign.Pool.run ~jobs:2 (fun x -> x + 1) [ 1; 2 ] with
  | [ Campaign.Pool.Failed (Crashed reason); Settled 3 ] ->
    check_contains "diagnostic names the torn payload" "truncated" reason
  | _ -> Alcotest.fail "expected [Failed (Crashed _); Settled 3]"

let test_pool_retry_then_succeed () =
  with_chaos
    (fun ~index ~attempt -> if index = 1 && attempt = 1 then Some Campaign.Pool.Crash else None)
  @@ fun () ->
  let retries = ref [] in
  let policy =
    { Campaign.Pool.timeout = Some 5.0; retries = 2; backoff = 0.01 }
  in
  let outcomes =
    Campaign.Pool.run ~jobs:2 ~policy
      ~on_retry:(fun ~index ~attempt _ -> retries := (index, attempt) :: !retries)
      (fun x -> x * 10)
      [ 1; 2; 3 ]
  in
  Alcotest.(check bool)
    "every job settles despite the first-attempt crash" true
    (outcomes = [ Campaign.Pool.Settled 10; Settled 20; Settled 30 ]);
  Alcotest.(check (list (pair int int)))
    "exactly one retry, of job 1's first attempt" [ (1, 1) ] !retries

let test_pool_gives_up_after_retry_budget () =
  with_chaos
    (fun ~index ~attempt:_ -> if index = 0 then Some Campaign.Pool.Crash else None)
  @@ fun () ->
  let retries = ref 0 in
  let policy = { Campaign.Pool.default_policy with retries = 2; backoff = 0.01 } in
  match
    Campaign.Pool.run ~jobs:2 ~policy
      ~on_retry:(fun ~index:_ ~attempt:_ _ -> incr retries)
      (fun x -> x)
      [ 1; 2 ]
  with
  | [ Campaign.Pool.Failed (Gave_up attempts); Settled 2 ] ->
    Alcotest.(check int) "gave up after the whole budget" 3 attempts;
    Alcotest.(check int) "two retries before giving up" 2 !retries
  | _ -> Alcotest.fail "expected [Failed (Gave_up _); Settled 2]"

let test_pool_serial_retry () =
  let failures = ref 0 in
  let policy = { Campaign.Pool.default_policy with retries = 1; backoff = 0.001 } in
  let outcomes =
    Campaign.Pool.run ~jobs:1 ~backend:Campaign.Pool.Serial ~policy
      (fun x ->
        if x = 1 && !failures = 0 then begin
          incr failures;
          failwith "flaky"
        end
        else x * 10)
      [ 0; 1 ]
  in
  Alcotest.(check bool)
    "the serial path retries too" true
    (outcomes = [ Campaign.Pool.Settled 0; Settled 10 ])

(* -- persistent workers: each is forked once per call and serves many
   attempts; a failed one is replaced, and none outlives the call -- *)

let settled outcomes =
  List.filter_map
    (function Campaign.Pool.Settled value -> Some value | _ -> None)
    outcomes

let pids outcomes = List.sort_uniq compare (settled outcomes)

(* The descriptors this process holds, where the platform lists them. *)
let open_fds () =
  if Sys.file_exists "/proc/self/fd" then
    Some (Array.length (Sys.readdir "/proc/self/fd"))
  else None

let test_pool_workers_persist () =
  let served =
    settled
      (Campaign.Pool.run ~jobs:2
         (fun _ -> (Unix.getpid (), open_fds ()))
         (List.init 20 Fun.id))
  in
  Alcotest.(check int) "every item settles" 20 (List.length served);
  let workers = List.sort_uniq compare (List.map fst served) in
  Alcotest.(check bool) "at most two workers serve twenty items" true
    (List.length workers <= 2);
  Alcotest.(check bool) "no item runs in the supervisor" false
    (List.mem (Unix.getpid ()) workers);
  (* A worker closes the pipe ends it inherits from the supervisor, its
     siblings' included, so the later fork holds no more than the
     first. *)
  Alcotest.(check int) "every worker holds the same descriptors" 1
    (List.length (List.sort_uniq compare (List.map snd served)))

let test_pool_replaces_failed_workers () =
  let plan =
    match Campaign.Pool.chaos_of_string "crash:3;trunc:5" with
    | Ok plan -> plan
    | Error message -> Alcotest.failf "chaos spec: %s" message
  in
  with_chaos plan @@ fun () ->
  let outcomes =
    Campaign.Pool.run ~jobs:2 (fun _ -> Unix.getpid ()) (List.init 12 Fun.id)
  in
  List.iteri
    (fun index outcome ->
      match (index, outcome) with
      | 3, Campaign.Pool.Failed failure ->
        Alcotest.(check string) "item 3's worker died"
          "crashed: killed by SIGKILL"
          (Campaign.Pool.failure_to_string failure)
      | 5, Campaign.Pool.Failed failure ->
        Alcotest.(check string) "item 5's payload tore"
          "crashed: truncated result payload"
          (Campaign.Pool.failure_to_string failure)
      | (3 | 5), _ -> Alcotest.failf "item %d should have failed" index
      | _, Campaign.Pool.Settled _ -> ()
      | _ -> Alcotest.failf "item %d should have settled" index)
    outcomes;
  Alcotest.(check bool) "two workers plus one replacement per fault" true
    (List.length (pids outcomes) <= 4)

let check_no_leftovers what before =
  (match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  | 0, _ -> Alcotest.failf "%s: a worker is still running" what
  | pid, _ -> Alcotest.failf "%s: worker %d was left unreaped" what pid);
  Alcotest.(check (option int))
    (what ^ ": no descriptor leaked") before (open_fds ())

let test_pool_leaves_nothing_behind () =
  let before = open_fds () in
  ignore (Campaign.Pool.run ~jobs:2 (fun x -> x) (List.init 6 Fun.id));
  check_no_leftovers "a clean run" before;
  (with_chaos (fun ~index ~attempt:_ ->
       if index = 1 then Some Campaign.Pool.Hang else None)
   @@ fun () ->
   let policy = { Campaign.Pool.default_policy with timeout = Some 0.3 } in
   ignore
     (Campaign.Pool.run ~jobs:2 ~policy (fun x -> x) (List.init 4 Fun.id)));
  check_no_leftovers "a deadline kill" before;
  let stop = ref false in
  let outcomes =
    Campaign.Pool.run ~jobs:2
      ~stop:(fun () -> !stop)
      ~on_done:(fun _ -> stop := true)
      (fun x ->
        Unix.sleepf 0.05;
        x)
      (List.init 8 Fun.id)
  in
  Alcotest.(check bool) "the stop skipped some items" true
    (List.mem Campaign.Pool.Not_run outcomes);
  check_no_leftovers "a stop" before

(* Wait until [pid] has exited (a zombie, still unreaped). *)
let await_exit pid =
  let stat = Printf.sprintf "/proc/%d/stat" pid in
  let exited () =
    match In_channel.with_open_text stat In_channel.input_all with
    | line -> (
      match String.rindex_opt line ')' with
      | Some close -> String.length line > close + 2 && line.[close + 2] = 'Z'
      | None -> false)
    | exception Sys_error _ -> false
  in
  let deadline = Unix.gettimeofday () +. 5.0 in
  if Sys.file_exists stat then
    while (not (exited ())) && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.01
    done
  else Unix.sleepf 0.5

let test_pool_idle_worker_death () =
  (* The first attempt fails in the worker and reports its pid; while
     the retry backs off, that worker sits idle and is killed. The
     retry's write then meets a closed pipe: it must neither kill the
     supervisor with SIGPIPE nor count against the job, which runs on a
     replacement forked after [killed] was set. *)
  let killed = ref false in
  let policy = { Campaign.Pool.default_policy with retries = 1; backoff = 0.2 } in
  let outcomes =
    Campaign.Pool.run ~jobs:1 ~policy
      ~on_retry:(fun ~index:_ ~attempt:_ failure ->
        match failure with
        | Campaign.Pool.Crashed message ->
          let pid = Scanf.sscanf message "Failure(%S)" int_of_string in
          if pid = Unix.getpid () then
            Alcotest.fail "the attempt ran in the supervisor";
          Unix.kill pid Sys.sigkill;
          await_exit pid;
          killed := true
        | _ -> Alcotest.fail "expected the first attempt to raise")
      (fun x -> if !killed then x else failwith (string_of_int (Unix.getpid ())))
      [ 42 ]
  in
  Alcotest.(check bool) "the retry settles on a replacement worker" true
    (outcomes = [ Campaign.Pool.Settled 42 ])

(* -- the supervisor's wait: it blocks until a worker reports, a deadline
   or a retry comes due, or a short cap passes; it never polls -- *)

let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let test_pool_supervisor_sleeps () =
  (* Three items wait for the one busy worker the whole time. Waiting
     must cost the supervisor neither allocation nor CPU: the workers'
     own CPU is not in [Unix.times]'s self fields. *)
  let words = Gc.minor_words () and cpu = cpu_seconds () in
  let outcomes =
    Campaign.Pool.run ~jobs:1
      (fun x ->
        Unix.sleepf 0.05;
        x)
      (List.init 4 Fun.id)
  in
  let words = Gc.minor_words () -. words and cpu = cpu_seconds () -. cpu in
  Alcotest.(check (list string)) "every item settles" [ "0"; "1"; "2"; "3" ]
    (List.map show_outcome outcomes);
  if words >= 50_000.0 || cpu >= 0.05 then
    Alcotest.failf "supervisor allocated %.0f words and spent %.3f s of CPU"
      words cpu

let test_pool_stop_without_signal () =
  (* The one worker hangs, so no result ends a wait, and the stop comes
     without a signal, so no EINTR does. The cap must: the hung
     attempt's deadline is far past the bound, so a wait without the cap
     fails on time instead of hanging the suite. *)
  with_chaos
    (fun ~index ~attempt:_ -> if index = 0 then Some Campaign.Pool.Hang else None)
  @@ fun () ->
  let policy = { Campaign.Pool.default_policy with timeout = Some 10.0 } in
  List.iter
    (fun count ->
      let what = Printf.sprintf "%d item(s)" count in
      let before = open_fds () in
      let t0 = Unix.gettimeofday () in
      let outcomes =
        Campaign.Pool.run ~jobs:1 ~policy
          ~stop:(fun () -> Unix.gettimeofday () > t0 +. 0.2)
          (fun x -> x)
          (List.init count Fun.id)
      in
      let elapsed = Unix.gettimeofday () -. t0 in
      if elapsed >= 2.0 then
        Alcotest.failf "%s: the stop was seen after %.1f s" what elapsed;
      Alcotest.(check (list string))
        (what ^ ": every item is not run")
        (List.init count (fun _ -> "not run"))
        (List.map show_outcome outcomes);
      check_no_leftovers what before)
    [ 1; 2 ]

(* -- JSON round-trips -- *)

let test_json_roundtrip () =
  let document =
    Campaign.Json.Obj
      [
        ("name", Campaign.Json.Str "sweep \"quoted\"\n");
        ("count", Campaign.Json.Num 42.0);
        ("rate", Campaign.Json.Num 0.017);
        ("flags", Campaign.Json.List [ Campaign.Json.Bool true; Campaign.Json.Null ]);
      ]
  in
  let rendered = Campaign.Json.to_string document in
  match Campaign.Json.of_string rendered with
  | Error message -> Alcotest.failf "reparse failed: %s" message
  | Ok reparsed ->
    Alcotest.(check string)
      "print/parse/print is stable" rendered
      (Campaign.Json.to_string reparsed)

let test_result_json_roundtrip () =
  let job = List.hd (Campaign.Sweep.jobs_of_grid (tiny_grid ())) in
  let result = Campaign.Job.run job in
  let json = Campaign.Job.result_to_json result in
  match
    Campaign.Json.of_string (Campaign.Json.pretty json)
    |> Result.map (Campaign.Job.result_of_json job)
  with
  | Error message -> Alcotest.failf "parse failed: %s" message
  | Ok (Error message) -> Alcotest.failf "decode failed: %s" message
  | Ok (Ok decoded) ->
    Alcotest.(check bool)
      "decoded result is structurally identical" true (decoded = result)

(* -- the cache -- *)

let test_cache_hit_is_byte_identical () =
  let cache = temp_cache_dir () in
  let grid = tiny_grid () in
  let cold = Campaign.Sweep.run ~cache ~jobs:1 grid in
  let warm = Campaign.Sweep.run ~cache ~jobs:1 grid in
  Alcotest.(check int) "cold run hits nothing" 0 cold.Campaign.Sweep.cache_hits;
  Alcotest.(check int)
    "warm run hits everything"
    (List.length warm.Campaign.Sweep.results)
    warm.Campaign.Sweep.cache_hits;
  Alcotest.(check int) "warm run executes nothing" 0
    warm.Campaign.Sweep.jobs_executed;
  Alcotest.(check string)
    "cached results render byte-identically"
    (Campaign.Json.to_string (Campaign.Sweep.results_json cold))
    (Campaign.Json.to_string (Campaign.Sweep.results_json warm))

(* [with_field text key raw] is the pretty-printed entry [text] with the
   value of its first [key] field replaced by the literal [raw]. *)
let with_field text key raw =
  let prefix = Printf.sprintf "\"%s\": " key in
  let rec find i =
    if String.sub text i (String.length prefix) = prefix then
      i + String.length prefix
    else find (i + 1)
  in
  let start = find 0 in
  let rec stop i = if String.contains ",\n}" text.[i] then i else stop (i + 1) in
  let stop = stop start in
  String.sub text 0 start ^ raw ^ String.sub text stop (String.length text - stop)

let test_cache_ignores_corrupt_entries () =
  let cache = temp_cache_dir () in
  let job = List.hd (Campaign.Sweep.jobs_of_grid (tiny_grid ())) in
  let path =
    Filename.concat (Campaign.Cache.dir cache) (Campaign.Job.digest job ^ ".json")
  in
  let write text =
    Out_channel.with_open_bin path (fun oc -> output_string oc text)
  in
  write "{ truncated";
  Alcotest.(check bool)
    "corrupt entry is a miss, not an error" true
    (Campaign.Cache.find cache job = None);
  let result = Campaign.Job.run job in
  Campaign.Cache.store cache result;
  Alcotest.(check bool)
    "store repairs the entry" true
    (Campaign.Cache.find cache job = Some result);
  (* Entries that parse but hold what no run measures: a count past
     2^53 (past max_int, int_of_float wraps it negative), a negative
     count, an infinite or negative goodput. Each must be a miss. *)
  let stored = In_channel.with_open_bin path In_channel.input_all in
  List.iter
    (fun (key, raw) ->
      let text = with_field stored key raw in
      Alcotest.(check bool)
        (Printf.sprintf "%s %s parses" key raw)
        true
        (Result.is_ok (Campaign.Json.of_string text));
      write text;
      Alcotest.(check bool)
        (Printf.sprintf "%s %s is a miss" key raw)
        true
        (Campaign.Cache.find cache job = None))
    [
      ("drops", "4.7e18");
      ("timeouts", "9007199254740994");
      ("retransmits", "-1");
      ("audit_checks", "-4140");
      ("goodput_bps", "1e999");
      ("goodput_bps", "-236000");
      ("aggregate_goodput_bps", "-1");
      ("jain", "1e999");
    ]

(* -- parallel vs serial equivalence -- *)

(* Journal lines of two sweeps differ only in their wall-clock stamps
   and settle order; zero the stamp and sort to compare. *)
let canonical_journal path =
  let zero line =
    match String.index_opt line ',' with
    | Some comma when String.starts_with ~prefix:{|{"t":|} line ->
      {|{"t":0|} ^ String.sub line comma (String.length line - comma)
    | _ -> line
  in
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n' |> List.map zero |> List.sort compare

let test_parallel_matches_serial () =
  let grid = tiny_grid () in
  let sweep = Campaign.Sweep.sweep_digest grid in
  let total = List.length (Campaign.Sweep.jobs_of_grid grid) in
  let run ?backend () =
    let path = Filename.temp_file "rr-campaign" ".journal.jsonl" in
    let journal = Campaign.Journal.start ~path ~sweep ~total in
    let outcome = Campaign.Sweep.run ~journal ~jobs:2 ?backend grid in
    Campaign.Journal.close journal;
    let canon = canonical_journal path in
    Sys.remove path;
    (* Only the wall-clock "in N s" and the worker count (the serial
       reference counts as one) differ between the pools. *)
    ({ outcome with Campaign.Sweep.elapsed_seconds = 0.0; workers = 0 }, canon)
  in
  let serial, serial_journal = run ~backend:Campaign.Pool.Serial () in
  let parallel, parallel_journal = run () in
  Alcotest.(check int) "4 seeded jobs" 4
    (List.length serial.Campaign.Sweep.results);
  Alcotest.(check string)
    "2-worker sweep reproduces the serial results"
    (Campaign.Json.to_string (Campaign.Sweep.results_json serial))
    (Campaign.Json.to_string (Campaign.Sweep.results_json parallel));
  Alcotest.(check string)
    "text reports agree" (Campaign.Sweep.report serial)
    (Campaign.Sweep.report parallel);
  Alcotest.(check string)
    "aggregates agree"
    (Campaign.Sweep.report_json serial)
    (Campaign.Sweep.report_json parallel);
  Alcotest.(check (list string))
    "journals record the same terminal states" serial_journal
    parallel_journal

let test_sweep_is_audited () =
  let outcome = Campaign.Sweep.run ~jobs:2 (tiny_grid ()) in
  Alcotest.(check int) "no invariant violations" 0
    (Campaign.Sweep.total_violations outcome);
  List.iter
    (fun r ->
      Alcotest.(check bool) "every job ran under the auditor" true
        (r.Campaign.Job.audit_checks > 0))
    outcome.Campaign.Sweep.results

let test_aggregation () =
  let outcome = Campaign.Sweep.run ~jobs:1 (tiny_grid ~seed_count:3 ()) in
  Alcotest.(check int) "one point per variant" 2
    (List.length outcome.Campaign.Sweep.points);
  List.iter
    (fun point ->
      let goodput = point.Campaign.Sweep.goodput in
      Alcotest.(check int) "three seeds per point" 3 goodput.Stats.Summary.n;
      Alcotest.(check bool) "mean goodput is positive" true
        (goodput.Stats.Summary.mean > 0.0);
      Alcotest.(check bool) "confidence interval is non-negative" true
        (goodput.Stats.Summary.ci95 >= 0.0);
      let jain = point.Campaign.Sweep.jain.Stats.Summary.mean in
      Alcotest.(check bool) "jain index within (0, 1]" true
        (jain > 0.0 && jain <= 1.0))
    outcome.Campaign.Sweep.points

(* -- sweep supervision: quarantine, interruption, journal resume -- *)

let test_sweep_quarantines_failures () =
  with_chaos
    (fun ~index ~attempt:_ -> if index = 0 then Some Campaign.Pool.Crash else None)
  @@ fun () ->
  let outcome = Campaign.Sweep.run ~jobs:2 (tiny_grid ()) in
  Alcotest.(check int) "one job quarantined" 1
    (List.length outcome.Campaign.Sweep.quarantined);
  Alcotest.(check int) "the rest settled" 3
    (List.length outcome.Campaign.Sweep.results);
  Alcotest.(check bool) "not interrupted" false
    outcome.Campaign.Sweep.interrupted;
  let text = Campaign.Sweep.report outcome in
  check_contains "text report has a quarantine table" "quarantined job(s):" text;
  check_contains "the failure is rendered" "crashed: killed by SIGKILL" text;
  check_contains "the summary line counts it" "1 quarantined" text;
  let json = Campaign.Sweep.report_json outcome in
  match Campaign.Json.of_string json with
  | Error message -> Alcotest.failf "report_json unparseable: %s" message
  | Ok parsed ->
    Alcotest.(check (option string))
      "schema is bumped" (Some "rr-sim-sweep/5")
      (Option.bind (Campaign.Json.member "schema" parsed) Campaign.Json.to_str);
    (match
       Option.bind (Campaign.Json.member "quarantined" parsed) Campaign.Json.to_list
     with
    | Some [ entry ] ->
      Alcotest.(check (option string))
        "failure kind is structured" (Some "crashed")
        (Option.bind (Campaign.Json.member "failure" entry) (fun f ->
             Option.bind (Campaign.Json.member "kind" f) Campaign.Json.to_str))
    | _ -> Alcotest.fail "expected exactly one quarantined entry in JSON")

let test_clean_sweep_report_is_unchanged () =
  let outcome = Campaign.Sweep.run ~jobs:2 (tiny_grid ()) in
  let text = Campaign.Sweep.report outcome in
  Alcotest.(check bool) "no quarantine section on a clean sweep" false
    (contains ~needle:"quarantined" text);
  Alcotest.(check bool) "no interruption note on a clean sweep" false
    (contains ~needle:"interrupted" text)

let test_sweep_counts_workers () =
  (* The summary gives the most workers alive at once, not the width
     asked for. *)
  let cache = temp_cache_dir () in
  let grid =
    Campaign.Sweep.grid ~variants:Core.Variant.[ Rr ] ~uniform_losses:[ 0.01 ]
      ~seed:11L ~seed_count:1 ~duration:3.0 ()
  in
  let cold = Campaign.Sweep.run ~cache ~jobs:2 grid in
  Alcotest.(check int) "one job starts one of two workers" 1
    cold.Campaign.Sweep.workers;
  check_contains "the summary line counts it" "1 executed on 1 worker(s)"
    (Campaign.Sweep.report cold);
  let warm = Campaign.Sweep.run ~cache ~jobs:2 grid in
  Alcotest.(check int) "a warm re-run starts none" 0 warm.Campaign.Sweep.workers;
  check_contains "the summary line counts none" "0 executed on 0 worker(s)"
    (Campaign.Sweep.report warm);
  let serial = Campaign.Sweep.run ~jobs:2 ~backend:Campaign.Pool.Serial grid in
  Alcotest.(check int) "the serial reference counts as one" 1
    serial.Campaign.Sweep.workers;
  let wide = Campaign.Sweep.run ~jobs:2 (tiny_grid ()) in
  Alcotest.(check int) "four jobs start both workers" 2
    wide.Campaign.Sweep.workers

let test_interrupted_sweep_keeps_finished_work () =
  let cache = temp_cache_dir () in
  let stop = ref false in
  let outcome =
    Campaign.Sweep.run ~cache ~jobs:2
      ~stop:(fun () -> !stop)
      ~on_progress:(fun ~completed ~total:_ -> if completed >= 1 then stop := true)
      (tiny_grid ())
  in
  Alcotest.(check bool) "flagged interrupted" true
    outcome.Campaign.Sweep.interrupted;
  Alcotest.(check bool) "some jobs were skipped" true
    (outcome.Campaign.Sweep.skipped > 0);
  let settled = List.length outcome.Campaign.Sweep.results in
  Alcotest.(check bool) "some jobs settled first" true (settled >= 1);
  check_contains "partial summary renders the interruption"
    "re-run with --resume" (Campaign.Sweep.report outcome);
  (* The settled results were stored eagerly, so a follow-up sweep
     serves them from the cache without re-execution. *)
  let warm = Campaign.Sweep.run ~cache ~jobs:2 (tiny_grid ()) in
  Alcotest.(check bool) "finished work survived the interruption" true
    (warm.Campaign.Sweep.cache_hits >= settled);
  Alcotest.(check int) "follow-up completes the campaign" 4
    (List.length warm.Campaign.Sweep.results)

let test_journal_resume_roundtrip () =
  let grid = tiny_grid () in
  let reference = Campaign.Sweep.run ~jobs:2 grid in
  let cache = temp_cache_dir () in
  let path = Filename.concat (Campaign.Cache.dir cache) "journal.jsonl" in
  let sweep = Campaign.Sweep.sweep_digest grid in
  let total = List.length (Campaign.Sweep.jobs_of_grid grid) in
  (* First pass: one worker is SIGKILLed, so its job fails and is
     journalled as such. *)
  let journal = Campaign.Journal.start ~path ~sweep ~total in
  let broken =
    with_chaos
      (fun ~index ~attempt:_ ->
        if index = 2 then Some Campaign.Pool.Crash else None)
      (fun () -> Campaign.Sweep.run ~cache ~journal ~jobs:2 grid)
  in
  Campaign.Journal.close journal;
  Alcotest.(check int) "first pass quarantined one job" 1
    (List.length broken.Campaign.Sweep.quarantined);
  (match Campaign.Journal.load ~path with
  | Error message -> Alcotest.failf "journal unreadable: %s" message
  | Ok snapshot ->
    Alcotest.(check string) "journal names the sweep" sweep
      snapshot.Campaign.Journal.sweep;
    Alcotest.(check int) "journal records the settled jobs" 3
      (List.length snapshot.Campaign.Journal.settled);
    Alcotest.(check int) "journal records the failure" 1
      (List.length snapshot.Campaign.Journal.failed));
  (* Second pass: resume. Only the failed job may execute, and the
     completed campaign must be byte-identical to an uninterrupted
     run. *)
  (match Campaign.Journal.resume ~path ~sweep with
  | Error message -> Alcotest.failf "resume refused: %s" message
  | Ok (journal, previous) ->
    Alcotest.(check int) "resume sees the previous settled set" 3
      (List.length previous.Campaign.Journal.settled);
    let resumed = Campaign.Sweep.run ~cache ~journal ~jobs:2 grid in
    Campaign.Journal.close journal;
    Alcotest.(check int) "resume re-ran only the failed job" 1
      resumed.Campaign.Sweep.jobs_executed;
    Alcotest.(check int) "resume served the rest from cache" 3
      resumed.Campaign.Sweep.cache_hits;
    Alcotest.(check string)
      "resumed campaign is byte-identical to an uninterrupted run"
      (Campaign.Json.to_string (Campaign.Sweep.results_json reference))
      (Campaign.Json.to_string (Campaign.Sweep.results_json resumed));
    (* After the resume the journal shows every job settled. *)
    match Campaign.Journal.load ~path with
    | Error message -> Alcotest.failf "journal unreadable after resume: %s" message
    | Ok snapshot ->
      Alcotest.(check int) "every job now settled" 4
        (List.length snapshot.Campaign.Journal.settled);
      Alcotest.(check int) "no failures remain" 0
        (List.length snapshot.Campaign.Journal.failed));
  (* A journal never grafts onto a different sweep. *)
  let other = tiny_grid ~seed_count:1 () in
  Alcotest.(check bool) "resume refuses a foreign journal" true
    (Result.is_error
       (Campaign.Journal.resume ~path
          ~sweep:(Campaign.Sweep.sweep_digest other)))

(* -- byte identity: job labels, digests, canonical JSON and reports
   are pinned; a change to any of them re-keys users' result caches and
   the benchmark's campaign pin -- *)

(* Every axis off its default in two grids, because the asym axis needs
   the dumbbell: the first keeps the dumbbell and sweeps asym, the
   second adds a parking lot with asym off. *)
let every_axis_grids ~wide ~seed_count ~duration =
  let two a b = if wide then [ a; b ] else [ b ] in
  [
    Campaign.Sweep.grid
      ~variants:Core.Variant.[ Newreno; Rrr ]
      ~gateways:(two (Campaign.Job.Droptail 8) (Campaign.Job.Red 25))
      ~uniform_losses:(two 0.0 0.02) ~ack_losses:(two 0.0 0.05)
      ~reorders:(two 0.0 0.05) ~flap_periods:(two 0.0 2.0)
      ~cbr_shares:(two 0.0 0.25)
      ~estimators:(two Tcp.Rto.Jacobson Tcp.Rto.Rfc793)
      ~rrr_levels:[ 0.5; 0.2 ] ~asym_ratios:[ 0.0; 10.0 ]
      ~handover_periods:[ 0.0; 3.0 ] ~seed:3L ~seed_count ~duration ~flows:3
      ~rwnd:16 ();
    Campaign.Sweep.grid
      ~variants:Core.Variant.[ Reno; Rrr ]
      ~gateways:[ Campaign.Job.Red 12 ]
      ~topologies:[ Campaign.Job.Dumbbell; Campaign.Job.Parking_lot 3 ]
      ~uniform_losses:[ 0.01 ] ~ack_losses:[ 0.02 ] ~reorders:[ 0.1 ]
      ~flap_periods:[ 5.0 ] ~cbr_shares:[ 0.1 ]
      ~estimators:(two Tcp.Rto.Agile Tcp.Rto.Fixed)
      ~rrr_levels:[ 0.8 ] ~handover_periods:[ 4.0 ] ~seed:11L ~seed_count
      ~duration ~flows:1 ~rwnd:24 ();
  ]

let md5 text = Digest.to_hex (Digest.string text)

let test_job_identity_pinned () =
  List.iter2
    (fun grid (count, pinned) ->
      let jobs = Campaign.Sweep.jobs_of_grid grid in
      Alcotest.(check int) "job count" count (List.length jobs);
      Alcotest.(check string)
        "digest, point label and canonical JSON of every job" pinned
        (md5
           (String.concat ""
              (List.map
                 (fun job ->
                   Printf.sprintf "%s\t%s\t%s\n" (Campaign.Job.digest job)
                     (Campaign.Job.point_label job)
                     (Campaign.Json.to_string (Campaign.Job.to_json job)))
                 jobs))))
    (every_axis_grids ~wide:true ~seed_count:2 ~duration:7.5)
    [
      (3072, "0f9d9b033fa7870332fe7ec2b9984ae0");
      (16, "00fcb0678510465dc7e10cbecf51744f");
    ]

let test_sweep_reports_pinned () =
  List.iter2
    (fun grid (text, json) ->
      let outcome =
        {
          (Campaign.Sweep.run ~jobs:1 grid) with
          Campaign.Sweep.elapsed_seconds = 0.0;
          workers = 0;
        }
      in
      Alcotest.(check string) "text report" text
        (md5 (Campaign.Sweep.report outcome));
      Alcotest.(check string) "JSON report" json
        (md5 (Campaign.Sweep.report_json outcome)))
    (every_axis_grids ~wide:false ~seed_count:2 ~duration:6.0)
    [
      ("57c2bee20d1bf8a25fd10d7ef1218a9e", "950b9f76ba3b55f8e86aee284ae8937f");
      ("06bd069b9553d4d5c01ec50b459e6096", "15554818bcf4d984c083c1da1db4932f");
    ]

(* -- summary statistics -- *)

let test_summary () =
  let s = Stats.Summary.of_list [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  Alcotest.(check (float 1e-9)) "mean" 5.0 s.Stats.Summary.mean;
  Alcotest.(check (float 1e-6)) "sample stddev" 2.13809 s.Stats.Summary.stddev;
  Alcotest.(check bool) "ci95 = t * s / sqrt n" true
    (Float.abs (s.Stats.Summary.ci95 -. (2.365 *. 2.13809 /. sqrt 8.0)) < 1e-4);
  let single = Stats.Summary.of_list [ 3.0 ] in
  Alcotest.(check (float 0.0)) "n=1 has no spread" 0.0 single.Stats.Summary.ci95;
  Alcotest.(check int) "empty sample" 0 (Stats.Summary.of_list []).Stats.Summary.n

(* -- the experiment registry -- *)

let test_registry_unique_and_complete () =
  let names = Experiments.Registry.names in
  Alcotest.(check int) "every experiment is registered exactly once"
    (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (Printf.sprintf "core artifact %s is registered" name)
        true
        (Experiments.Registry.find name <> None))
    [ "fig5"; "fig6"; "fig7"; "table5"; "ablation"; "sensitivity" ];
  Alcotest.(check bool) "unknown names are not found" true
    (Experiments.Registry.find "no-such-experiment" = None);
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (Printf.sprintf "%s has a synopsis" e.Experiments.Registry.name)
        true
        (String.length e.Experiments.Registry.synopsis > 0))
    Experiments.Registry.all

let suite =
  [
    ( "campaign",
      [
        Alcotest.test_case "grid expansion" `Quick test_grid_expansion;
        Alcotest.test_case "digest stability" `Quick test_digest_stability;
        Alcotest.test_case "axis defaults" `Quick test_axis_defaults;
        Alcotest.test_case "bindings" `Quick test_bindings;
        Alcotest.test_case "grid validation" `Quick test_grid_validation;
        Alcotest.test_case "job validation" `Quick test_job_validation;
        Alcotest.test_case "fat-tree jobs" `Quick test_fat_tree_jobs;
        Alcotest.test_case "topology sizes capped" `Quick test_topology_caps;
        Alcotest.test_case "duplicate points rejected" `Quick
          test_duplicate_points_rejected;
        Alcotest.test_case "pool order" `Quick test_pool_order_and_results;
        Alcotest.test_case "pool failure" `Quick test_pool_propagates_failure;
        Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
        Alcotest.test_case "result json roundtrip" `Slow test_result_json_roundtrip;
        Alcotest.test_case "cache byte-identical" `Slow
          test_cache_hit_is_byte_identical;
        Alcotest.test_case "cache corrupt entry" `Slow
          test_cache_ignores_corrupt_entries;
        Alcotest.test_case "parallel = serial" `Slow test_parallel_matches_serial;
        Alcotest.test_case "sweep audited" `Slow test_sweep_is_audited;
        Alcotest.test_case "aggregation" `Slow test_aggregation;
        Alcotest.test_case "chaos spec parsing" `Quick test_chaos_spec_parsing;
        Alcotest.test_case "pool: SIGKILLed worker" `Quick
          test_pool_worker_sigkilled;
        Alcotest.test_case "pool: hung worker times out" `Quick
          test_pool_hung_worker_times_out;
        Alcotest.test_case "pool: truncated payload" `Quick
          test_pool_truncated_payload_is_a_crash;
        Alcotest.test_case "pool: retry then succeed" `Quick
          test_pool_retry_then_succeed;
        Alcotest.test_case "pool: retry budget exhausted" `Quick
          test_pool_gives_up_after_retry_budget;
        Alcotest.test_case "pool: serial retry" `Quick test_pool_serial_retry;
        Alcotest.test_case "pool: workers persist" `Quick
          test_pool_workers_persist;
        Alcotest.test_case "pool: failed workers replaced" `Quick
          test_pool_replaces_failed_workers;
        Alcotest.test_case "pool: nothing left behind" `Quick
          test_pool_leaves_nothing_behind;
        Alcotest.test_case "pool: idle worker death" `Quick
          test_pool_idle_worker_death;
        Alcotest.test_case "pool: supervisor sleeps" `Quick
          test_pool_supervisor_sleeps;
        Alcotest.test_case "pool: stop without a signal" `Quick
          test_pool_stop_without_signal;
        Alcotest.test_case "sweep quarantine" `Slow
          test_sweep_quarantines_failures;
        Alcotest.test_case "clean sweep report unchanged" `Slow
          test_clean_sweep_report_is_unchanged;
        Alcotest.test_case "sweep worker count" `Slow test_sweep_counts_workers;
        Alcotest.test_case "interrupted sweep keeps work" `Slow
          test_interrupted_sweep_keeps_finished_work;
        Alcotest.test_case "journal resume roundtrip" `Slow
          test_journal_resume_roundtrip;
        Alcotest.test_case "job identity pinned" `Quick test_job_identity_pinned;
        Alcotest.test_case "sweep reports pinned" `Slow test_sweep_reports_pinned;
        Alcotest.test_case "summary stats" `Quick test_summary;
        Alcotest.test_case "registry" `Quick test_registry_unique_and_complete;
      ] );
  ]

type binding = Bind : 'a Job.axis * 'a list -> binding

type grid = Job.t list

let grid ?variants ?gateways ?topologies ?uniform_losses ?ack_losses ?reorders
    ?flap_periods ?cbr_shares ?estimators ?rrr_levels ?asym_ratios
    ?handover_periods ?(bindings = []) ?seeds ?(seed = 7L) ?(seed_count = 6)
    ?(duration = 20.0) ?(flows = 2) ?(rwnd = 20) () =
  let sugar axis = Option.map (fun values -> Bind (axis, values)) in
  let bindings =
    Job.Axes.
      [
        sugar variant variants; sugar gateway gateways;
        sugar topology topologies; sugar uniform_loss uniform_losses;
        sugar ack_loss ack_losses; sugar reorder reorders;
        sugar flap_period flap_periods; sugar cbr_share cbr_shares;
        sugar estimator estimators; sugar rrr_level rrr_levels;
        sugar asym_ratio asym_ratios; sugar handover_period handover_periods;
      ]
    |> List.filter_map Fun.id |> List.append bindings
  in
  let base = { Job.default with duration; flows; rwnd } in
  Job.validate base;
  if seed_count < 0 then
    invalid_arg (Printf.sprintf "--seeds %d: must be >= 0" seed_count);
  let seeds =
    match seeds with
    | Some seeds -> seeds
    | None -> List.init seed_count (fun i -> Int64.add seed (Int64.of_int i))
  in
  (* Every axis in table order: its binding, else its documented
     default. Each value is checked even if no job takes it up: an axis
     expands only the jobs it multiplies, and the rest keep the default
     job's value. *)
  let expand jobs (Job.Axis axis) =
    let (Bind (axis, values)) =
      match
        List.filter (fun (Bind (a, _)) -> a.Job.key = axis.Job.key) bindings
      with
      | [ binding ] -> binding
      | [] -> Bind (axis, Result.get_ok (Job.parse_values axis axis.default))
      | _ -> invalid_arg (Printf.sprintf "--%s is bound twice" axis.flag)
    in
    List.iter (fun v -> Job.validate (axis.set v base)) values;
    List.concat_map
      (fun job ->
        if axis.multiplies job then
          List.map (fun v -> axis.set v job) values
        else [ job ])
      jobs
  in
  let jobs =
    List.concat_map
      (fun job -> List.map (fun seed -> { job with Job.seed }) seeds)
      (List.fold_left expand [ base ] Job.axes)
  in
  let points = Hashtbl.create 64 in
  List.iter
    (fun job ->
      Job.validate job;
      let point = (Job.point_label job, job.Job.seed) in
      if Hashtbl.mem points point then
        invalid_arg
          (Printf.sprintf
             "grid point %s, seed %Ld, appears twice: an axis lists values \
              that label alike"
             (fst point) job.Job.seed);
      Hashtbl.add points point ())
    jobs;
  jobs

let jobs_of_grid grid = grid

let sweep_digest grid =
  Digest.to_hex
    (Digest.string
       (String.concat "\n" (List.map Job.digest (jobs_of_grid grid))))

type point = {
  point_job : Job.t;
  goodput : Stats.Summary.t;
  jain : Stats.Summary.t;
  timeouts : Stats.Summary.t;
  retransmits : Stats.Summary.t;
  drops : Stats.Summary.t;
  violations : int;
}

type quarantined = { q_job : Job.t; q_failure : Pool.failure }

type outcome = {
  grid : grid;
  results : Job.result list;
  points : point list;
  quarantined : quarantined list;
  skipped : int;
  interrupted : bool;
  cache_hits : int;
  jobs_executed : int;
  workers : int;
  elapsed_seconds : float;
}

(* Group results whose jobs differ only in seed, keeping first-occurrence
   order. *)
let group_points results =
  let table = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun result ->
      let key = Job.point_label result.Job.job in
      if not (Hashtbl.mem table key) then order := key :: !order;
      Hashtbl.replace table key
        (result :: (Option.value ~default:[] (Hashtbl.find_opt table key))))
    results;
  List.rev_map
    (fun key ->
      let group = List.rev (Hashtbl.find table key) in
      let totals per_flow =
        List.map
          (fun r ->
            float_of_int
              (List.fold_left (fun acc m -> acc + per_flow m) 0 r.Job.flow_metrics))
          group
      in
      {
        point_job = (List.hd group).Job.job;
        goodput =
          Stats.Summary.of_list
            (List.map (fun r -> r.Job.aggregate_goodput_bps) group);
        jain = Stats.Summary.of_list (List.map (fun r -> r.Job.jain) group);
        timeouts = Stats.Summary.of_list (totals (fun m -> m.Job.timeouts));
        retransmits = Stats.Summary.of_list (totals (fun m -> m.Job.retransmits));
        drops = Stats.Summary.of_list (totals (fun m -> m.Job.drops));
        violations =
          List.fold_left (fun acc r -> acc + r.Job.audit_violations) 0 group;
      })
    !order

let run ?cache ?journal ?(policy = Pool.default_policy)
    ?(stop = fun () -> false) ?jobs ?backend
    ?(on_progress = fun ~completed:_ ~total:_ -> ()) grid =
  let started = Unix.gettimeofday () in
  let width = match jobs with Some n -> max 1 n | None -> Pool.default_jobs () in
  let all_jobs = jobs_of_grid grid in
  let total = List.length all_jobs in
  let lookup job =
    match cache with
    | None -> (job, None)
    | Some cache -> (job, Cache.find cache job)
  in
  let slots = List.map lookup all_jobs in
  let cache_hits =
    List.length (List.filter (fun (_, hit) -> hit <> None) slots)
  in
  if cache_hits > 0 then on_progress ~completed:cache_hits ~total;
  let misses = List.filter_map (fun (job, hit) ->
      match hit with None -> Some job | Some _ -> None) slots in
  let miss_jobs = Array.of_list misses in
  (* Every terminal outcome is persisted the moment it is collected —
     eager cache stores and journal records — so finished work survives
     an interrupted sweep even without [--resume]. *)
  let on_settled ~index outcome =
    let job = miss_jobs.(index) in
    match outcome with
    | Ok result ->
      Option.iter (fun cache -> Cache.store cache result) cache;
      Option.iter (fun j -> Journal.settled j ~digest:(Job.digest job)) journal
    | Error failure ->
      Option.iter
        (fun j ->
          Journal.failed j ~digest:(Job.digest job)
            ~failure:(Pool.failure_to_string failure))
        journal
  in
  let on_retry ~index ~attempt failure =
    Option.iter
      (fun j ->
        Journal.retry j ~digest:(Job.digest miss_jobs.(index)) ~attempt
          ~failure:(Pool.failure_to_string failure))
      journal
  in
  let workers = ref 0 in
  let outcomes =
    Pool.run ~jobs:width ?backend ~policy ~stop
      ~on_done:(fun settled -> on_progress ~completed:(cache_hits + settled) ~total)
      ~on_retry ~on_settled
      ~on_worker:(fun alive -> workers := max !workers alive)
      Job.run misses
  in
  (* Stitch cached and fresh outcomes back into expansion order:
     successes stay results, failures become quarantined rows, and
     jobs cut short by a stop request are merely skipped. *)
  let outcomes = ref outcomes in
  let results_rev = ref [] in
  let quarantined_rev = ref [] in
  let skipped = ref 0 in
  List.iter
    (fun (job, hit) ->
      match hit with
      | Some result -> results_rev := result :: !results_rev
      | None -> (
        match !outcomes with
        | outcome :: rest -> (
          outcomes := rest;
          match outcome with
          | Pool.Settled result -> results_rev := result :: !results_rev
          | Pool.Failed failure ->
            quarantined_rev := { q_job = job; q_failure = failure } :: !quarantined_rev
          | Pool.Not_run -> incr skipped)
        | [] -> assert false))
    slots;
  let results = List.rev !results_rev in
  let quarantined = List.rev !quarantined_rev in
  let interrupted = stop () in
  Option.iter
    (fun j ->
      Journal.finish j
        ~settled:(List.length results - cache_hits)
        ~failed:(List.length quarantined) ~interrupted)
    journal;
  {
    grid;
    results;
    points = group_points results;
    quarantined;
    skipped = !skipped;
    interrupted;
    cache_hits;
    jobs_executed = List.length misses - !skipped;
    workers = !workers;
    elapsed_seconds = Unix.gettimeofday () -. started;
  }

let total_violations outcome =
  List.fold_left (fun acc r -> acc + r.Job.audit_violations) 0 outcome.results

let results_json outcome =
  Json.List (List.map Job.result_to_json outcome.results)

let point_to_json point =
  let job = point.point_job in
  Json.Obj
    ((("point", Json.Str (Job.point_label job))
     :: List.map (fun (Job.Axis a) -> (a.key, a.json (a.get job))) Job.axes)
    @ [
        ("seeds", Json.Num (float_of_int point.goodput.Stats.Summary.n));
        ("goodput_bps_mean", Json.Num point.goodput.Stats.Summary.mean);
        ("goodput_bps_ci95", Json.Num point.goodput.Stats.Summary.ci95);
        ("goodput_bps_stddev", Json.Num point.goodput.Stats.Summary.stddev);
        ("jain_mean", Json.Num point.jain.Stats.Summary.mean);
        ("timeouts_mean", Json.Num point.timeouts.Stats.Summary.mean);
        ("retransmits_mean", Json.Num point.retransmits.Stats.Summary.mean);
        ("drops_mean", Json.Num point.drops.Stats.Summary.mean);
        ("audit_violations", Json.Num (float_of_int point.violations));
      ])

let failure_json = function
  | Pool.Crashed reason ->
    Json.Obj [ ("kind", Json.Str "crashed"); ("reason", Json.Str reason) ]
  | Pool.Timed_out deadline ->
    Json.Obj
      [ ("kind", Json.Str "timed_out"); ("deadline_seconds", Json.Num deadline) ]
  | Pool.Gave_up attempts ->
    Json.Obj
      [
        ("kind", Json.Str "gave_up");
        ("attempts", Json.Num (float_of_int attempts));
      ]

let quarantined_to_json q =
  Json.Obj
    [
      ("digest", Json.Str (Job.digest q.q_job));
      ("job", Job.to_json q.q_job);
      ("failure", failure_json q.q_failure);
    ]

let total_jobs outcome =
  List.length outcome.results + List.length outcome.quarantined
  + outcome.skipped

let report_json outcome =
  Json.pretty
    (Json.Obj
       [
         ("schema", Json.Str "rr-sim-sweep/5");
         ("jobs", Json.Num (float_of_int (total_jobs outcome)));
         ("cache_hits", Json.Num (float_of_int outcome.cache_hits));
         ("workers", Json.Num (float_of_int outcome.workers));
         ("elapsed_seconds", Json.Num outcome.elapsed_seconds);
         ("interrupted", Json.Bool outcome.interrupted);
         ("skipped", Json.Num (float_of_int outcome.skipped));
         ( "quarantined",
           Json.List (List.map quarantined_to_json outcome.quarantined) );
         ("points", Json.List (List.map point_to_json outcome.points));
         ("results", results_json outcome);
       ])
  ^ "\n"

let report outcome =
  (* An optional axis gets a column only when some point leaves its
     default, so a classic sweep shows only the classic columns. *)
  let columns =
    List.filter
      (fun (Job.Axis a) ->
        (not a.optional)
        || List.exists (fun p -> Job.visible a p.point_job) outcome.points)
      Job.column_axes
  in
  let header =
    List.map (fun (Job.Axis a) -> a.header) columns
    @ [
        "seeds"; "goodput (Kbps)"; "jain"; "timeouts"; "retx"; "drops";
        "violations";
      ]
  in
  let rows =
    List.map
      (fun point ->
        List.map (fun (Job.Axis a) -> Job.cell a point.point_job) columns
        @ [
            string_of_int point.goodput.Stats.Summary.n;
            Stats.Summary.to_string ~scale:0.001 point.goodput;
            Printf.sprintf "%.3f" point.jain.Stats.Summary.mean;
            Stats.Summary.to_string point.timeouts;
            Stats.Summary.to_string point.retransmits;
            Stats.Summary.to_string point.drops;
            string_of_int point.violations;
          ])
      outcome.points
  in
  let jobs = total_jobs outcome in
  (* Quarantine and interruption render only when present, so clean
     sweeps stay byte-identical to the pre-supervision output. *)
  let quarantine_block =
    if outcome.quarantined = [] then ""
    else
      "\nquarantined job(s):\n"
      ^ Stats.Text_table.render ~header:[ "job"; "seed"; "failure" ]
          (List.map
             (fun q ->
               [
                 Job.point_label q.q_job;
                 Int64.to_string q.q_job.Job.seed;
                 Pool.failure_to_string q.q_failure;
               ])
             outcome.quarantined)
  in
  let quarantine_note =
    if outcome.quarantined = [] then ""
    else Printf.sprintf ", %d quarantined" (List.length outcome.quarantined)
  in
  let interrupted_note =
    if outcome.interrupted then
      Printf.sprintf
        "interrupted: %d job(s) not run; re-run with --resume to finish\n"
        outcome.skipped
    else ""
  in
  Stats.Text_table.render ~header rows
  ^ quarantine_block
  ^ Printf.sprintf
      "\n%d job(s): %d from cache, %d executed on %d worker(s) in %.1f s;  %d \
       audit violation(s)%s\n"
      jobs outcome.cache_hits outcome.jobs_executed outcome.workers
      outcome.elapsed_seconds (total_violations outcome) quarantine_note
  ^ interrupted_note

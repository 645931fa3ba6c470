(* campaign: Campaign.Sweep.run with the sweep CLI's defaults — default
   pool width and backend (fork above one worker), default policy, a
   result cache and run journal in a fresh directory per pass — over
   48 short jobs: four variants x link flaps on/off x handovers on/off
   x three seeds drawn from the benchmark seed. This process must
   never spawn a domain: the runtime refuses fork after one. *)

(* Digest of the first pass's outputs at the default seed. *)
let pinned = "97a1646d9bd62181d746f621d708e19c"

let horizon = 10.0

let grid ~seed ~duration =
  Campaign.Sweep.grid ~flap_periods:[ 0.0; 2.0 ] ~handover_periods:[ 0.0; 3.0 ]
    ~seed:(Int64.of_int seed) ~seed_count:3 ~duration ()

let workers = Campaign.Pool.default_jobs ()

let result_digest r =
  Harness.digest_of_string (Campaign.Json.to_string (Campaign.Job.result_to_json r))

(* Acknowledged segments (recovered from the whole-run goodput) plus
   retransmissions: a job's result carries no first-send count. *)
let segments (r : Campaign.Job.result) =
  let bits_per_segment = float_of_int (8 * Tcp.Params.default.Tcp.Params.mss) in
  List.fold_left
    (fun acc (m : Campaign.Job.flow_metrics) ->
      acc
      + Float.to_int
          (Float.round
             (m.Campaign.Job.goodput_bps *. r.Campaign.Job.job.Campaign.Job.duration
            /. bits_per_segment))
      + m.Campaign.Job.retransmits)
    0 r.Campaign.Job.flow_metrics

(* One op per job, in expansion order: its result's digest, or why it
   failed (quarantined, auditor violations, not run). *)
let ops_of jobs (outcome : Campaign.Sweep.outcome) =
  let results = Hashtbl.create 64 and quarantined = Hashtbl.create 8 in
  List.iter
    (fun (r : Campaign.Job.result) ->
      Hashtbl.replace results (Campaign.Job.digest r.Campaign.Job.job) r)
    outcome.Campaign.Sweep.results;
  List.iter
    (fun (q : Campaign.Sweep.quarantined) ->
      Hashtbl.replace quarantined (Campaign.Job.digest q.Campaign.Sweep.q_job)
        (Campaign.Pool.failure_to_string q.Campaign.Sweep.q_failure))
    outcome.Campaign.Sweep.quarantined;
  List.map
    (fun job ->
      let d = Campaign.Job.digest job in
      match (Hashtbl.find_opt results d, Hashtbl.find_opt quarantined d) with
      | Some r, _ when r.Campaign.Job.audit_violations = 0 -> Harness.Done (result_digest r)
      | Some r, _ ->
        Harness.Failed (Printf.sprintf "%d auditor violation(s)" r.Campaign.Job.audit_violations)
      | None, Some failure -> Harness.Failed ("quarantined: " ^ failure)
      | None, None -> Harness.Failed "not run")
    jobs

let sweep ~dir grid =
  let cache = Campaign.Cache.create ~dir () in
  let journal =
    Campaign.Journal.start
      ~path:(Filename.concat dir "journal.jsonl")
      ~sweep:(Campaign.Sweep.sweep_digest grid)
      ~total:(List.length (Campaign.Sweep.jobs_of_grid grid))
  in
  Fun.protect
    ~finally:(fun () -> Campaign.Journal.close journal)
    (fun () ->
      Campaign.Sweep.run ~cache ~journal ~policy:Campaign.Pool.default_policy
        ~jobs:workers grid)

(* One sweep in a fresh directory, removed afterwards; only the sweep
   is a program call. *)
let pass grid jobs =
  let dir = Harness.fresh_dir () in
  let result =
    match Harness.call (sweep ~dir) grid with
    | outcome -> (ops_of jobs outcome, Some outcome)
    | exception e ->
      (List.map (fun _ -> Harness.Failed ("Sweep.run: " ^ Printexc.to_string e)) jobs, None)
  in
  Harness.remove dir;
  result

(* The traced composition: Pool.run over a Job.run that stamps its own
   start and end in the worker, with the digest, cache store and cache
   find of every job timed around it in the supervisor. *)
type timings = {
  mutable compute : float list;  (** ms per job, mean over the pass *)
  mutable dispatch : float list;
  mutable handoff : float list;
  mutable store : float list;  (** us per job *)
  mutable find : float list;
  mutable digest : float list;
}

let composed timings jobs =
  let n = List.length jobs in
  let per_job_us t0 = Perfbench_kit.Clock.seconds_since t0 *. 1e6 /. float_of_int n in
  let t0 = Perfbench_kit.Clock.now_ns () in
  Harness.call (List.iter (fun job -> ignore (Campaign.Job.digest job))) jobs;
  timings.digest <- per_job_us t0 :: timings.digest;
  let settled_at = Array.make n 0 in
  let run job =
    let start = Perfbench_kit.Clock.now_ns () in
    let r = Campaign.Job.run job in
    (r, start, Perfbench_kit.Clock.now_ns ())
  in
  let p0 = Perfbench_kit.Clock.now_ns () in
  let outcomes =
    Harness.call
      (Campaign.Pool.run ~jobs:workers
         ~on_settled:(fun ~index _ -> settled_at.(index) <- Perfbench_kit.Clock.now_ns ())
         run)
      jobs
  in
  let pool_s = Perfbench_kit.Clock.seconds_since p0 in
  let settled =
    List.mapi
      (fun i -> function
        | Campaign.Pool.Settled (r, start, stop) -> Some (r, start, stop, settled_at.(i))
        | Campaign.Pool.Failed _ | Campaign.Pool.Not_run -> None)
      outcomes
  in
  let done_ = List.filter_map Fun.id settled in
  let ms ns = float_of_int ns *. 1e-6 in
  let compute_ms = List.fold_left (fun acc (_, s, e, _) -> acc +. ms (e - s)) 0.0 done_ in
  let handoff_ms = List.fold_left (fun acc (_, _, e, h) -> acc +. ms (h - e)) 0.0 done_ in
  let nf = float_of_int n in
  timings.compute <- (compute_ms /. nf) :: timings.compute;
  timings.dispatch <-
    (((pool_s *. 1000.0 *. float_of_int workers) -. compute_ms) /. nf) :: timings.dispatch;
  timings.handoff <- (handoff_ms /. nf) :: timings.handoff;
  let dir = Harness.fresh_dir () in
  let cache = Campaign.Cache.create ~dir () in
  let t0 = Perfbench_kit.Clock.now_ns () in
  Harness.call (List.iter (fun (r, _, _, _) -> Campaign.Cache.store cache r)) done_;
  timings.store <- per_job_us t0 :: timings.store;
  let t0 = Perfbench_kit.Clock.now_ns () in
  Harness.call (List.iter (fun job -> ignore (Campaign.Cache.find cache job))) jobs;
  timings.find <- per_job_us t0 :: timings.find;
  Harness.remove dir;
  List.map
    (function
      | Some (r, _, _, _) when r.Campaign.Job.audit_violations = 0 -> Harness.Done (result_digest r)
      | Some _ -> Harness.Failed "auditor violations"
      | None -> Harness.Failed "job failed")
    settled

let measure ~trace ~seed ~seconds =
  let full = grid ~seed ~duration:horizon and setup = grid ~seed ~duration:0.001 in
  let full_jobs = Campaign.Sweep.jobs_of_grid full
  and setup_jobs = Campaign.Sweep.jobs_of_grid setup in
  let ops, outcome = pass full full_jobs in
  Harness.check ~kind:"full" ops;
  Option.iter
    (fun o ->
      Harness.pin ~kind:"campaign" ~seed ~pinned
        [ Harness.Done (Campaign.Json.to_string (Campaign.Sweep.results_json o)) ])
    outcome;
  let results = match outcome with Some o -> o.Campaign.Sweep.results | None -> [] in
  let segs = max 1 (List.fold_left (fun acc r -> acc + segments r) 0 results) in
  let plain () = Harness.check ~kind:"full" (fst (pass full full_jobs))
  and setup () = Harness.check ~kind:"setup" (fst (pass setup setup_jobs)) in
  setup ();
  let jobs = float_of_int (List.length full_jobs) in
  if not trace then begin
    let t = Harness.passes ~seconds ~plain ~setup [] in
    Printf.eprintf "perfbench campaign: %.1f jobs/s (%d jobs per pass)\n"
      (Perfbench_kit.Sample.per_second ~count:(List.length full_jobs) ~seconds:t.Harness.plain)
      (List.length full_jobs);
    Harness.end_to_end ~segments:segs t
  end
  else begin
    let timings =
      { compute = []; dispatch = []; handoff = []; store = []; find = []; digest = [] }
    in
    let traced_s = Harness.samples "traced" in
    let traced () = Harness.check ~kind:"full" (composed timings full_jobs) in
    let t = Harness.passes ~seconds ~plain ~setup [ Harness.step traced_s traced ] in
    let median = Perfbench_kit.Sample.median in
    let total f =
      float_of_int
        (List.fold_left
           (fun acc (r : Campaign.Job.result) ->
             List.fold_left (fun acc m -> acc + f m) acc r.Campaign.Job.flow_metrics)
           0 results)
    in
    let segs_f = float_of_int segs in
    [
      ("net.queue.drops_per_kseg", 1000.0 *. total (fun m -> m.Campaign.Job.drops) /. segs_f);
      ("tcp.retx_ratio", total (fun m -> m.Campaign.Job.retransmits) /. segs_f);
      ("tcp.timeouts_per_kseg", 1000.0 *. total (fun m -> m.Campaign.Job.timeouts) /. segs_f);
      ( "audit.auditor.checks_per_seg",
        float_of_int
          (List.fold_left (fun acc r -> acc + r.Campaign.Job.audit_checks) 0 results)
        /. segs_f );
      ("experiments.setup_ms_per_run", median t.Harness.setup *. 1000.0 /. jobs);
      ("campaign.job.compute_ms", median timings.compute);
      ("campaign.dispatch_ms_per_job", median timings.dispatch);
      ("campaign.handoff_ms_per_job", median timings.handoff);
      ("campaign.cache.store_us_per_job", median timings.store);
      ("campaign.cache.find_us_per_job", median timings.find);
      ("campaign.digest_us_per_job", median timings.digest);
      ("gc.minor_words_per_seg", median t.Harness.words /. segs_f);
      ("gc.minor_words_per_job", median t.Harness.words /. jobs);
      ("trace.overhead_ratio", (median !traced_s /. median t.Harness.plain) -. 1.0);
    ]
  end

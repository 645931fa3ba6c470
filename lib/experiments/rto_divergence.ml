type cell = {
  estimator : Tcp.Rto.estimator;
  throughput_bps : float;
  timeouts : float;
  divergences : float;
  sync_bursts : float;
  sample : string option;
}

type outcome = cell list

let period = 6.0

let down_for = 2.0

let duration = 30.0

(* The paper's coarse defaults (min 1 s, initial 3 s) clamp every
   estimator to the same floor on the ~200 ms Table 3 path, hiding the
   family's differences entirely; fine timers are where Jain's layered
   comparison actually separates. *)
let params estimator =
  {
    Tcp.Params.default with
    Tcp.Params.rwnd = 20;
    min_rto = 0.2;
    initial_rto = 0.5;
    max_rto = 8.0;
    rto_estimator = estimator;
  }

let run_one ~seed ~faults estimator =
  let params = params estimator in
  let t =
    Scenario.run
      (Scenario.make
         ~topology:(Scenario.dumbbell (Net.Dumbbell.paper_config ~flows:2))
         ~flows:Core.Variant.[ Scenario.flow Rr; Scenario.flow Rr ]
         ~params ~seed ~duration ~faults ~watch_divergence:true ())
  in
  let flows = List.init (Array.length t.Scenario.results) Fun.id in
  let throughput =
    flows
    |> List.map (fun flow -> Scenario.goodput_bps t ~flow ~t0:2.0 ~t1:duration)
    |> List.fold_left ( +. ) 0.0
  in
  let timeouts =
    flows
    |> List.fold_left
         (fun acc flow ->
           acc + (Scenario.counters t ~flow).Tcp.Counters.timeouts)
         0
  in
  let monitor =
    match t.Scenario.divergence with
    | Some monitor -> monitor
    | None -> assert false
  in
  (throughput, timeouts, monitor)

let run ?(estimators = Tcp.Rto.estimators) ?(seeds = [ 7L; 29L ]) () =
  let faults =
    {
      Faults.Spec.none with
      Faults.Spec.flaps =
        Some (Faults.Spec.Periodic { period; down_for });
      flap_policy = `Drop_queued;
    }
  in
  List.map
    (fun estimator ->
      let runs =
        List.map (fun seed -> run_one ~seed ~faults estimator) seeds
      in
      let monitors = List.map (fun (_, _, m) -> m) runs in
      {
        estimator;
        throughput_bps =
          Stats.Metrics.mean (List.map (fun (x, _, _) -> x) runs);
        timeouts =
          Stats.Metrics.mean
            (List.map (fun (_, t, _) -> float_of_int t) runs);
        divergences =
          Stats.Metrics.mean
            (List.map
               (fun m -> float_of_int (Audit.Divergence.divergence_count m))
               monitors);
        sync_bursts =
          Stats.Metrics.mean
            (List.map
               (fun m -> float_of_int (Audit.Divergence.sync_burst_count m))
               monitors);
        sample =
          (* Prefer an RTO-divergence finding — the rarer, more telling
             of the two rules — over a synchronization burst. *)
          (let render f =
             Printf.sprintf "[%.2fs] %s: %s — %s" f.Audit.Divergence.time
               f.Audit.Divergence.subject f.Audit.Divergence.rule
               f.Audit.Divergence.detail
           in
           let all = List.concat_map Audit.Divergence.findings monitors in
           match
             List.find_opt
               (fun f -> f.Audit.Divergence.rule = "rto-divergence")
               all
           with
           | Some f -> Some (render f)
           | None -> (
             match all with f :: _ -> Some (render f) | [] -> None));
      })
    estimators

let findings outcome =
  List.fold_left
    (fun acc c -> acc +. c.divergences +. c.sync_bursts)
    0.0 outcome

let report outcome =
  let header =
    [
      "RTO estimator";
      "goodput (Kbps)";
      "timeouts";
      "divergences";
      "sync bursts";
    ]
  in
  let rows =
    List.map
      (fun c ->
        [
          Tcp.Rto.estimator_name c.estimator;
          Printf.sprintf "%.1f" (c.throughput_bps /. 1000.0);
          Printf.sprintf "%.1f" c.timeouts;
          Printf.sprintf "%.1f" c.divergences;
          Printf.sprintf "%.1f" c.sync_bursts;
        ])
      outcome
  in
  let sample =
    match List.find_map (fun c -> c.sample) outcome with
    | Some s -> "\nexample finding: " ^ s ^ "\n"
    | None -> ""
  in
  Printf.sprintf
    "RTO-estimator divergence (Jain, cs/9809097) under link flaps: %.0f s \
     outage every %.0f s, buffer dropped at cut\n\
     two RR flows, fine timers (min RTO %.0f ms); the divergence audit \
     flags RTO running away from measured RTT and synchronized timeout \
     bursts\n\n\
     %s%s"
    down_for period
    (1000.0 *. (params Tcp.Rto.Jacobson).Tcp.Params.min_rto)
    (Stats.Text_table.render ~header rows)
    sample

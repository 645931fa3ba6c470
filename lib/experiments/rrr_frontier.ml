type point = {
  level : float;
  aggregate_bps : float;
  jain : float;
  rrr_bps : float;
  reno_bps : float;
  share : float;
}

type outcome = { duration : float; loss : float; points : point list }

let duration = 30.0

let loss = 0.01

let homogeneous_flows = 4

let reno_competitors = 3

let params ~level = { Tcp.Params.default with rwnd = 20; rrr_level = level }

let goodputs t n =
  List.init n (fun flow ->
      Scenario.goodput_bps t ~flow ~t0:2.0 ~t1:duration)

(* Intra-protocol: a pod of RRR flows at the same level — aggregate
   throughput and Jain fairness across the pod. *)
let run_homogeneous ~seed ~level =
  let t =
    Scenario.run
      (Scenario.make
         ~topology:
           (Scenario.dumbbell
              (Net.Dumbbell.paper_config ~flows:homogeneous_flows))
         ~flows:
           (List.init homogeneous_flows (fun flow ->
                {
                  (Scenario.flow Core.Variant.Rrr) with
                  Scenario.start = 0.2 *. float_of_int flow;
                }))
         ~params:(params ~level) ~seed ~duration ~uniform_loss:loss ())
  in
  let rates = goodputs t homogeneous_flows in
  (List.fold_left ( +. ) 0.0 rates, Stats.Metrics.jain_index rates)

(* Inter-protocol: one RRR flow among Renos — how much more (or less)
   than a fair share does its gentler backoff take? *)
let run_mixed ~seed ~level =
  let flows = 1 + reno_competitors in
  let t =
    Scenario.run
      (Scenario.make
         ~topology:(Scenario.dumbbell (Net.Dumbbell.paper_config ~flows))
         ~flows:
           (List.init flows (fun flow ->
                let variant =
                  if flow = 0 then Core.Variant.Rrr else Core.Variant.Reno
                in
                {
                  (Scenario.flow variant) with
                  Scenario.start = 0.2 *. float_of_int flow;
                }))
         ~params:(params ~level) ~seed ~duration ~uniform_loss:loss ())
  in
  match goodputs t flows with
  | rrr :: renos -> (rrr, Stats.Metrics.mean renos)
  | [] -> assert false

let run ?(levels = [ 0.1; 0.3; 0.5; 0.7; 0.9 ]) ?(seeds = [ 7L; 29L ]) () =
  let mean = Stats.Metrics.mean in
  let points =
    List.map
      (fun level ->
        let pods = List.map (fun seed -> run_homogeneous ~seed ~level) seeds in
        let mixed = List.map (fun seed -> run_mixed ~seed ~level) seeds in
        let rrr_bps = mean (List.map fst mixed)
        and reno_bps = mean (List.map snd mixed) in
        {
          level;
          aggregate_bps = mean (List.map fst pods);
          jain = mean (List.map snd pods);
          rrr_bps;
          reno_bps;
          share = rrr_bps /. reno_bps;
        })
      levels
  in
  { duration; loss; points }

let report outcome =
  let header =
    [
      "level";
      "4-rrr aggregate (Kbps)";
      "Jain";
      "rrr among renos (Kbps)";
      "reno mean (Kbps)";
      "rrr/reno";
    ]
  in
  let rows =
    List.map
      (fun p ->
        [
          Printf.sprintf "%.1f" p.level;
          Printf.sprintf "%.1f" (p.aggregate_bps /. 1000.0);
          Printf.sprintf "%.3f" p.jain;
          Printf.sprintf "%.1f" (p.rrr_bps /. 1000.0);
          Printf.sprintf "%.1f" (p.reno_bps /. 1000.0);
          Printf.sprintf "%.2f" p.share;
        ])
      outcome.points
  in
  Printf.sprintf
    "RRR fairness-vs-throughput frontier across the backoff level\n\
     each congestion event multiplies the window by 1 - level (0.5 = Reno)\n\
     left: a pod of 4 RRR flows; right: one RRR among %d Renos (%.0f%% loss)\n\n\
     %s"
    reno_competitors (100.0 *. outcome.loss)
    (Stats.Text_table.render ~header rows)

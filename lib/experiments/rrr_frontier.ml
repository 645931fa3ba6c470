type outcome = float Variant_table.t

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

let cell level _ ~seed =
  let aggregate, jain = run_homogeneous ~seed ~level in
  let rrr, reno = run_mixed ~seed ~level in
  [| aggregate; jain; rrr; reno |]

let run () =
  Variant_table.run ~rows:[ 0.1; 0.3; 0.5; 0.7; 0.9 ]
    ~variants:[ Core.Variant.Rrr ] ~seeds:[ 7L; 29L ] cell

let report outcome =
  Printf.sprintf
    "RRR fairness-vs-throughput frontier across the backoff level\n\
     each congestion event multiplies the window by 1 - level (0.5 = Reno)\n\
     left: a pod of 4 RRR flows; right: one RRR among %d Renos (%.0f%% loss)\n\n\
     %s"
    reno_competitors (100.0 *. loss)
    (Variant_table.render_long
       ~keys:[ ("level", fun (level, _) -> Printf.sprintf "%.1f" level) ]
       ~columns:
         [
           Variant_table.kbps "4-rrr aggregate (Kbps)" 0;
           ("Jain", fun m -> Printf.sprintf "%.3f" m.(1));
           Variant_table.kbps "rrr among renos (Kbps)" 2;
           Variant_table.kbps "reno mean (Kbps)" 3;
           ("rrr/reno", fun m -> Printf.sprintf "%.2f" (m.(2) /. m.(3)));
         ]
       outcome)

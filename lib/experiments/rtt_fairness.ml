type outcome = { duration : float; table : unit Variant_table.t }

let flows = 4

let params = { Tcp.Params.default with rwnd = 20 }

let config =
  {
    (Net.Dumbbell.paper_config ~flows) with
    gateway = Net.Dumbbell.Droptail { capacity = 25 };
  }

(* Access one-way delays of 1/21/41/61 ms on top of the 96 ms bottleneck
   give nominal RTTs of ~0.2 to ~0.44 s. *)
let hetero_delays =
  [| Sim.Units.ms 1.0; Sim.Units.ms 21.0; Sim.Units.ms 41.0; Sim.Units.ms 61.0 |]

let goodputs ~seed ~duration variant side_delays =
  let flow_specs =
    List.init flows (fun flow ->
        {
          (Scenario.flow variant) with
          Scenario.start = 0.15 *. float_of_int flow;
        })
  in
  let t =
    Scenario.run
      (Scenario.make ~topology:(Scenario.dumbbell config) ~flows:flow_specs ~params ~seed ~duration
         ?side_delays ())
  in
  List.init flows (fun flow ->
      Scenario.goodput_bps t ~flow ~t0:10.0 ~t1:duration)

let cell ~duration () variant ~seed =
  let equal = goodputs ~seed ~duration variant None in
  let hetero = goodputs ~seed ~duration variant (Some hetero_delays) in
  let first = List.nth hetero 0 in
  let last = List.nth hetero (flows - 1) in
  Array.of_list
    (Stats.Metrics.jain_index equal
    :: Stats.Metrics.jain_index hetero
    :: (if last > 0.0 then first /. last else infinity)
    :: hetero)

let run ?(variants = Core.Variant.[ Rr; Reno ]) ?(seed = 41L)
    ?(duration = 120.0) () =
  {
    duration;
    table =
      Variant_table.run ~rows:[ () ] ~variants ~seeds:[ seed ] (cell ~duration);
  }

let report outcome =
  Printf.sprintf
    "RTT fairness (4 flows, drop-tail, %.0f s; paper section 5)\n\
     claim: with equal RTTs RR converges to the fair share (Jain -> 1);\n\
     with unequal RTTs the usual AIMD short-RTT bias appears\n\n\
     %s"
    outcome.duration
    (Variant_table.render_long
       ~keys:[ ("variant", fun (_, variant) -> Core.Variant.name variant) ]
       ~columns:
         [
           ("Jain (equal RTT)", fun m -> Printf.sprintf "%.3f" m.(0));
           ("Jain (hetero RTT)", fun m -> Printf.sprintf "%.3f" m.(1));
           ("short/long bias", fun m -> Printf.sprintf "%.1fx" m.(2));
           ( "hetero goodputs (Kbps)",
             fun m ->
               String.concat "/"
                 (List.init flows (fun flow ->
                      Printf.sprintf "%.0f" (m.(3 + flow) /. 1000.0))) );
         ]
       outcome.table)

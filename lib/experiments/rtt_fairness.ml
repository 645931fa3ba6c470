type row = {
  variant : Core.Variant.t;
  equal_rtt_jain : float;
  hetero_jain : float;
  hetero_bias : float;
  goodputs_hetero : float list;
}

type outcome = { duration : float; rows : row list }

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

let goodputs ~duration t =
  List.init flows (fun flow ->
      Scenario.goodput_bps t ~flow ~t0:10.0 ~t1:duration)

let run_case ~seed ~duration ~variant side_delays =
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
  goodputs ~duration t

let run ?(variants = Core.Variant.[ Rr; Reno ]) ?(seed = 41L)
    ?(duration = 120.0) () =
  let rows =
    List.map
      (fun variant ->
        let equal = run_case ~seed ~duration ~variant None in
        let hetero = run_case ~seed ~duration ~variant (Some hetero_delays) in
        let first = List.nth hetero 0 in
        let last = List.nth hetero (flows - 1) in
        {
          variant;
          equal_rtt_jain = Stats.Metrics.jain_index equal;
          hetero_jain = Stats.Metrics.jain_index hetero;
          hetero_bias = (if last > 0.0 then first /. last else infinity);
          goodputs_hetero = hetero;
        })
      variants
  in
  { duration; rows }

let report outcome =
  let header =
    [
      "variant";
      "Jain (equal RTT)";
      "Jain (hetero RTT)";
      "short/long bias";
      "hetero goodputs (Kbps)";
    ]
  in
  let rows =
    List.map
      (fun row ->
        [
          Core.Variant.name row.variant;
          Printf.sprintf "%.3f" row.equal_rtt_jain;
          Printf.sprintf "%.3f" row.hetero_jain;
          Printf.sprintf "%.1fx" row.hetero_bias;
          String.concat "/"
            (List.map
               (fun g -> Printf.sprintf "%.0f" (g /. 1000.0))
               row.goodputs_hetero);
        ])
      outcome.rows
  in
  Printf.sprintf
    "RTT fairness (4 flows, drop-tail, %.0f s; paper section 5)\n\
     claim: with equal RTTs RR converges to the fair share (Jain -> 1);\n\
     with unequal RTTs the usual AIMD short-RTT bias appears\n\n\
     %s"
    outcome.duration
    (Stats.Text_table.render ~header rows)

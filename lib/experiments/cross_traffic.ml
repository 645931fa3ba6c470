type outcome = float Variant_table.t

let duration = 20.0

let cell share variant ~seed =
  let config =
    Net.Dumbbell.paper_config ~flows:(if share > 0.0 then 2 else 1)
  in
  let cross =
    if share > 0.0 then
      [
        Scenario.cbr
          ~rate_bps:(share *. config.Net.Dumbbell.bottleneck_bandwidth_bps)
          ();
      ]
    else []
  in
  let t =
    Scenario.run
      (Scenario.make ~topology:(Scenario.dumbbell config)
         ~flows:[ Scenario.flow variant ] ~seed ~duration ~cross ())
  in
  let throughput = Scenario.goodput_bps t ~flow:0 ~t0:2.0 ~t1:duration in
  let residual =
    (1.0 -. share) *. config.Net.Dumbbell.bottleneck_bandwidth_bps
  in
  let delivered =
    if share > 0.0 then
      let cr = t.Scenario.cross_results.(0) in
      let sent = Workload.Cbr.sent cr.Scenario.source in
      if sent = 0 then 1.0
      else float_of_int cr.Scenario.received /. float_of_int sent
    else 1.0
  in
  [|
    throughput;
    float_of_int (Scenario.counters t ~flow:0).Tcp.Counters.timeouts;
    throughput /. residual;
    delivered;
  |]

let run ?(variants = Core.Variant.[ Newreno; Sack; Rr ]) () =
  Variant_table.run ~rows:[ 0.0; 0.25; 0.5 ] ~variants ~seeds:[ 7L; 41L ] cell

let percent x = Printf.sprintf "%.0f%%" (100.0 *. x)

let report outcome =
  Printf.sprintf
    "Unresponsive CBR cross-traffic at the bottleneck\n\
     residual use = TCP goodput / capacity the CBR leaves over\n\n\
     %s"
    (Variant_table.render
       ~keys:
         [
           ("CBR share", fun (share, _) -> percent share);
           ( "CBR delivered",
             fun (_, runs) ->
               percent
                 (Stats.Metrics.mean
                    (List.concat_map (List.map (fun m -> m.(3))) runs)) );
         ]
       ~columns:
         Variant_table.
           [
             goodput;
             ("residual use", fun means -> percent means.(2));
             count "timeouts" 1;
           ]
       outcome)

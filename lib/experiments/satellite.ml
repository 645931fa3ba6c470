type outcome = (string * float * int * int) Variant_table.t

let duration = 120.0

let loss = 0.002

(* 0.8 Mbps at a 1.2 s RTT is a ~120-packet bandwidth-delay product;
   the deep gateway and rwnd let a sender actually fill it, so the
   experiment measures recovery behaviour rather than window caps. *)
let satellite_delay = 0.5

let satellite_buffer = 100

let satellite_rwnd = 150

let cell (_, one_way_delay, buffer, rwnd) variant ~seed =
  let config =
    {
      (Net.Dumbbell.paper_config ~flows:1) with
      bottleneck_delay = one_way_delay;
      gateway = Net.Dumbbell.Droptail { capacity = buffer };
    }
  in
  let t =
    Scenario.run
      (Scenario.make
         ~topology:(Scenario.dumbbell config)
         ~flows:[ Scenario.flow variant ]
         ~params:{ Tcp.Params.default with rwnd }
         ~seed ~duration ~uniform_loss:loss ())
  in
  let counters = Scenario.counters t ~flow:0 in
  [|
    Scenario.goodput_bps t ~flow:0 ~t0:5.0 ~t1:duration;
    float_of_int counters.Tcp.Counters.timeouts;
    float_of_int counters.Tcp.Counters.retransmits;
  |]

let run () =
  Variant_table.run ~variants:Core.Variant.[ Tahoe; Newreno; Sack; Rr ]
    ~seeds:[ 7L; 29L ]
    ~rows:
      [
        ("terrestrial (paper)", 0.096, 8, 20);
        ("satellite", satellite_delay, satellite_buffer, satellite_rwnd);
      ]
    cell

let report outcome =
  let bottleneck_bps =
    (Net.Dumbbell.paper_config ~flows:1).Net.Dumbbell.bottleneck_bandwidth_bps
  in
  Printf.sprintf
    "Satellite paths: long-RTT recovery (%.1f%% uniform loss, %.0f s runs)\n\
     at a ~1.2 s RTT every slow-start or timeout costs seconds of idle pipe;\n\
     dupack-clocked recovery (SACK, RR) keeps the window moving in one RTT\n\n\
     %s"
    (100.0 *. loss) duration
    (Variant_table.render
       ~keys:
         [
           ( "Path (delay/buffer/rwnd)",
             fun ((label, one_way_delay, buffer, rwnd), _) ->
               Printf.sprintf "%s (%.0f ms/%d/%d)" label
                 (1000.0 *. one_way_delay) buffer rwnd );
         ]
       ~columns:
         Variant_table.
           [
             goodput;
             ( "util",
               fun means -> Printf.sprintf "%.2f" (means.(0) /. bottleneck_bps)
             );
             count "timeouts" 1;
             count "retx" 2;
           ]
       outcome)

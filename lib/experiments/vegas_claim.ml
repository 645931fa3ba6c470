let vegas label mechanisms =
  {
    (Scenario.flow Core.Variant.Vegas) with
    Scenario.label;
    make =
      (fun ~engine ~params ~flow ~emit () ->
        Scenario.build
          (Tcp.Vegas.create_with ~engine ~params ~flow ~emit ~mechanisms ()));
  }

let configurations =
  [
    Scenario.flow Core.Variant.Reno;
    vegas "vegas (full)" Tcp.Vegas.full;
    vegas "vegas recovery only"
      {
        Tcp.Vegas.fine_retransmit = true;
        rtt_based_avoidance = false;
        cautious_slow_start = false;
      };
    vegas "vegas avoidance only"
      {
        Tcp.Vegas.fine_retransmit = false;
        rtt_based_avoidance = true;
        cautious_slow_start = true;
      };
  ]

let run ?seed () = Fig5.run ~drops:3 ?seed configurations

let report (outcome : Fig5.outcome) =
  Printf.sprintf
    "Vegas decomposition (ref [8] of the paper): %d-loss burst recovery\n\
     claim: Vegas' gain over Reno comes from its recovery changes, not\n\
     its RTT-based congestion avoidance\n\n\
     %s"
    outcome.drops
    (Fig5.table ~key:"configuration"
       ~columns:Fig5.[ throughput "goodput (Kbps)"; recovery; timeouts ]
       outcome)

let designs =
  List.map
    (fun (label, ablation) ->
      {
        (Scenario.flow Core.Variant.Rr) with
        Scenario.label;
        make =
          (fun ~engine ~params ~flow ~emit () ->
            let agent, handle =
              Core.Rr.create ~engine ~params ~flow ~emit ~ablation ()
            in
            Scenario.build ~rr:handle agent);
      })
    [
      ("paper design", Core.Rr.paper_design);
      ( "retreat: 1 pkt per dupack",
        { Core.Rr.paper_design with retreat_per_dupack = true } );
      ( "backoff: halve actnum",
        { Core.Rr.paper_design with multiplicative_backoff = true } );
      ( "exit: cwnd <- ssthresh",
        { Core.Rr.paper_design with exit_to_ssthresh = true } );
    ]

let run ?(drops = 6) () = Fig5.run ~drops designs

let report (outcome : Fig5.outcome) =
  Printf.sprintf
    "RR design ablations (Figure 5 scenario, %d losses in a window)\n\n%s"
    outcome.drops
    (Fig5.table ~key:"design"
       ~columns:Fig5.[ throughput "eff. throughput (Kbps)"; recovery; timeouts ]
       outcome)

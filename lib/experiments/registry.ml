type t = { name : string; synopsis : string; run : seed:int64 -> string }

let all =
  [
    {
      name = "fig5";
      synopsis =
        "Figure 5: effective throughput during recovery from 3- and 6-packet \
         loss bursts under drop-tail gateways";
      run =
        (fun ~seed ->
          Fig5.report (Fig5.run ~drops:3 ~seed Fig5.paper_flows)
          ^ "\n"
          ^ Fig5.report (Fig5.run ~drops:6 ~seed Fig5.paper_flows));
    };
    {
      name = "fig5-background";
      synopsis =
        "Figure 5, literal §3.2 setup: losses from two background flows \
         instead of a forced drop list";
      run = (fun ~seed -> Fig5.report_background (Fig5.run_background ~seed ()));
    };
    {
      name = "fig6";
      synopsis =
        "Figure 6: recovery dynamics and throughput under RED gateways with \
         ten staggered flows";
      run = (fun ~seed -> Fig6.report (Fig6.run ~seed ()));
    };
    {
      name = "fig7";
      synopsis =
        "Figure 7: fitness of RR and SACK to the square-root throughput model \
         under uniform loss";
      run =
        (fun ~seed:_ ->
          let outcome = Fig7.run () in
          Fig7.report outcome ^ "\n" ^ Fig7.plot outcome);
    };
    {
      name = "fig7-delack";
      synopsis =
        "Figure 7 under delayed ACKs (extension; model constant C = sqrt(3/4))";
      run =
        (fun ~seed:_ ->
          Fig7.report
            (Fig7.run
               ~loss_rates:[ 0.005; 0.01; 0.02; 0.05; 0.1 ]
               ~seeds:[ 3L; 17L ] ~delayed_ack:true ()));
    };
    {
      name = "table5";
      synopsis =
        "Table 5: fairness against TCP Reno (transfer delay and loss rate of \
         a 100 KB flow among 19 background flows)";
      run = (fun ~seed -> Table5.report (Table5.run ~seed ()));
    };
    {
      name = "table5-lt";
      synopsis =
        "Table 5 with RFC 3042 limited transmit (extension; restores \
         dupack-based recovery at the tiny per-flow windows 20 flows force)";
      run =
        (fun ~seed -> Table5.report (Table5.run ~seed ~limited_transmit:true ()));
    };
    {
      name = "ablation";
      synopsis =
        "RR design-decision ablations (retreat pacing, further-loss back-off, \
         exit window) on the 6-loss burst";
      run = (fun ~seed:_ -> Ablation.report (Ablation.run ()));
    };
    {
      name = "ackloss";
      synopsis =
        "ACK-loss robustness of recovery (§2.3): burst recovery under \
         reverse-path drops";
      run = (fun ~seed:_ -> Ack_loss.report (Ack_loss.run ()));
    };
    {
      name = "sync";
      synopsis =
        "Global synchronization and fairness: drop-tail vs RED gateways \
         (§3.3 motivation)";
      run = (fun ~seed -> Sync.report (Sync.run ~seed ()));
    };
    {
      name = "smooth";
      synopsis =
        "Smooth-Start (paper reference [21]): slow-start overshoot control";
      run = (fun ~seed -> Smooth.report (Smooth.run ~seed ()));
    };
    {
      name = "fig5-fack";
      synopsis =
        "FACK (paper reference [13]) against SACK and RR on the 6-loss \
         Figure 5 scenario";
      run =
        (fun ~seed ->
          Fig5.report
            (Fig5.run ~drops:6 ~seed
               (List.map Scenario.flow Core.Variant.[ Sack; Fack; Rr ])));
    };
    {
      name = "vegas";
      synopsis =
        "Vegas decomposition (paper reference [8]): recovery vs \
         congestion-avoidance contributions";
      run = (fun ~seed -> Vegas_claim.report (Vegas_claim.run ~seed ()));
    };
    {
      name = "rtt";
      synopsis =
        "RTT fairness: AIMD convergence with equal RTTs and the short-RTT \
         bias with unequal ones (§5)";
      run = (fun ~seed -> Rtt_fairness.report (Rtt_fairness.run ~seed ()));
    };
    {
      name = "twoway";
      synopsis =
        "Two-way traffic (paper reference [22]): ACK compression and loss \
         with data in both directions";
      run = (fun ~seed -> Two_way.report (Two_way.run ~seed ()));
    };
    {
      name = "reorder";
      synopsis =
        "Packet-reordering robustness (beyond the paper): spurious fast \
         retransmits under bounded extra delay";
      run = (fun ~seed:_ -> Reorder.report (Reorder.run ()));
    };
    {
      name = "flaps";
      synopsis =
        "Link-flap robustness (beyond the paper): periodic trunk outages \
         under hold- and drop-buffer policies";
      run = (fun ~seed:_ -> Flaps.report (Flaps.run ()));
    };
    {
      name = "cross";
      synopsis =
        "Unresponsive CBR cross-traffic (beyond the paper): residual \
         bandwidth use against a UDP competitor";
      run = (fun ~seed:_ -> Cross_traffic.report (Cross_traffic.run ()));
    };
    {
      name = "mice";
      synopsis =
        "Web-mice background (beyond the paper): bulk goodput vs short-flow \
         completion times under Pareto on/off load";
      run = (fun ~seed:_ -> Web_mice.report (Web_mice.run ()));
    };
    {
      name = "sensitivity";
      synopsis =
        "Robustness sweep: the Figure 5 ordering across gateway buffer sizes \
         and propagation delays";
      run = (fun ~seed:_ -> Sensitivity.report (Sensitivity.run ()));
    };
    {
      name = "rtodiv";
      synopsis =
        "RTO-estimator divergence (Jain, cs/9809097): the estimator family \
         under link flaps, with the divergence audit attached";
      run = (fun ~seed:_ -> Rto_divergence.report (Rto_divergence.run ()));
    };
    {
      name = "parkinglot";
      synopsis =
        "Parking-lot topology (beyond the paper): long flows across k chained \
         bottlenecks vs per-hop cross traffic, on the general graph engine";
      run = (fun ~seed -> Parking_lot.report (Parking_lot.run ~seed ()));
    };
    {
      name = "manyflow";
      synopsis =
        "Many-flow scale path (beyond the paper): a flat-array TCP flock on \
         an aggregate topology, summarised with streaming statistics";
      run =
        (fun ~seed ->
          Many_flow.report (Many_flow.run ~flows:2_000 ~duration:5.0 ~seed ()));
    };
    (* Recovery-algorithm bench (ROADMAP item 3): the artifacts below
       strictly extend the registry — every pre-existing entry above
       keeps its default variant list and stays byte-identical. *)
    {
      name = "modelcheck";
      synopsis =
        "Model validation: each variant's measured window against its own \
         steady-state model (Mathis sqrt, Relentless 1/p, RRR generalised \
         AIMD)";
      run = (fun ~seed:_ -> Modelcheck.report (Modelcheck.run ()));
    };
    {
      name = "fig5-bench";
      synopsis =
        "Figure 5's 6-loss burst with the bench variants (Relentless, RRR) \
         appended to the paper's five";
      run =
        (fun ~seed ->
          Fig5.report
            (Fig5.run ~drops:6 ~seed
               (Fig5.paper_flows
               @ List.map Scenario.flow Core.Variant.[ Relentless; Rrr ])));
    };
    {
      name = "fig6-bench";
      synopsis =
        "Figure 6's RED recovery dynamics with the bench variants appended";
      run =
        (fun ~seed ->
          Fig6.report
            (Fig6.run
               ~variants:
                 Core.Variant.[ Tahoe; Newreno; Sack; Rr; Relentless; Rrr ]
               ~seed ()));
    };
    {
      name = "fig7-bench";
      synopsis =
        "Figure 7's square-root fit including the bench variants \
         (Relentless's 1/p steady state visibly departs the sqrt model)";
      run =
        (fun ~seed:_ ->
          Fig7.report
            (Fig7.run
               ~variants:Core.Variant.[ Sack; Rr; Relentless; Rrr ]
               ~seeds:[ 3L; 17L ] ()));
    };
    {
      name = "table5-bench";
      synopsis =
        "Table 5's 20-flow fairness machinery for the bench variants: \
         Relentless and RRR each as a lone target among Renos and as the \
         background for a Reno target";
      run =
        (fun ~seed ->
          Table5.report
            (Table5.run ~seed
               ~cases:
                 Core.Variant.
                   [
                     ("relentless among renos", Reno, Relentless);
                     ("reno among relentless", Relentless, Reno);
                     ("rrr among renos", Reno, Rrr);
                     ("reno among rrrs", Rrr, Reno);
                   ]
               ()));
    };
    {
      name = "sync-bench";
      synopsis =
        "Drop-tail vs RED synchronization and Jain fairness with the bench \
         variants appended";
      run =
        (fun ~seed ->
          Sync.report
            (Sync.run
               ~variants:Core.Variant.[ Reno; Rr; Relentless; Rrr ]
               ~seed ()));
    };
    {
      name = "flaps-bench";
      synopsis =
        "Link-flap robustness (PR-4 faults) with the bench variants appended";
      run =
        (fun ~seed:_ ->
          Flaps.report
            (Flaps.run
               ~variants:Core.Variant.[ Newreno; Sack; Rr; Relentless; Rrr ]
               ()));
    };
    {
      name = "cross-bench";
      synopsis =
        "CBR cross-traffic residual-bandwidth use with the bench variants \
         appended";
      run =
        (fun ~seed:_ ->
          Cross_traffic.report
            (Cross_traffic.run
               ~variants:Core.Variant.[ Newreno; Sack; Rr; Relentless; Rrr ]
               ()));
    };
    (* The hostile-network pack (PR 10) and the RRR frontier follow. *)
    {
      name = "mobile";
      synopsis =
        "Mobile-channel robustness: fading and handover rate timelines under \
         paper and deep (bufferbloat) gateways";
      run = (fun ~seed:_ -> Mobile.report (Mobile.run ()));
    };
    {
      name = "satellite";
      synopsis =
        "Long-RTT satellite path (500 ms one-way, BDP-deep buffers): \
         slow-start cost vs dupack-clocked recovery";
      run = (fun ~seed:_ -> Satellite.report (Satellite.run ()));
    };
    {
      name = "asym";
      synopsis =
        "Asymmetric ACK channels: forward:reverse trunk ratios 1:1 to 50:1 \
         starving the ACK clock";
      run = (fun ~seed:_ -> Asym.report (Asym.run ()));
    };
    {
      name = "rrr-levels";
      synopsis =
        "RRR fairness-vs-throughput frontier across the backoff level: pod \
         fairness and the share taken from Renos";
      run = (fun ~seed:_ -> Rrr_frontier.report (Rrr_frontier.run ()));
    };
  ]

let find name = List.find_opt (fun e -> e.name = name) all
let names = List.map (fun e -> e.name) all

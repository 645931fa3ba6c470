(* Quickstart: one Robust-Recovery TCP flow over the paper's dumbbell.

   Builds the Table 3 topology (0.8 Mbps bottleneck, ~200 ms RTT,
   8-packet drop-tail gateway), attaches an RR sender and a standard
   receiver, runs a persistent FTP for 20 simulated seconds, and prints
   what happened.

     dune exec examples/quickstart.exe *)

let () =
  let engine = Sim.Engine.create () in
  let config = Net.Dumbbell.paper_config ~flows:1 in
  let topology =
    Net.Dumbbell.topology
      (Net.Dumbbell.create ~engine ~config ~rng:(Sim.Rng.create 1L) ())
  in
  (* Default parameters: the advertised window is effectively unbounded,
     so slow start overshoots the 28-packet pipe and RR gets real bursty
     losses to recover from. *)
  let params = Tcp.Params.default in

  (* Sender: the paper's contribution. Its [emit] injects data packets
     at host S1; ACKs come back through [on_ack]. *)
  let agent, _handle =
    Core.Rr.create ~engine ~params ~flow:0
      ~emit:(Net.Topology.inject_data topology ~flow:0)
      ~ablation:Core.Rr.paper_design ()
  in
  let receiver =
    Tcp.Receiver.create ~engine ~flow:0
      ~emit:(Net.Topology.inject_ack topology ~flow:0)
      ()
  in
  Net.Topology.on_data topology ~flow:0 (Tcp.Receiver.deliver receiver);
  Net.Topology.on_ack topology ~flow:0 agent.Tcp.Agent.deliver_ack;

  let trace = Stats.Flow_trace.attach agent in
  Workload.Ftp.persistent ~engine ~agent ~at:0.0;
  Sim.Engine.run_until engine ~time:20.0;

  let base = agent.Tcp.Agent.base in
  let goodput =
    Stats.Metrics.effective_throughput_bps trace ~mss:params.Tcp.Params.mss
      ~t0:0.0 ~t1:20.0
  in
  Format.printf "RR flow over %.1f Mbps bottleneck, 20 s:@."
    (config.Net.Dumbbell.bottleneck_bandwidth_bps /. 1e6);
  Format.printf "  goodput        %.1f Kbps (%.0f%% of the link)@."
    (goodput /. 1000.0)
    (100.0 *. goodput /. config.Net.Dumbbell.bottleneck_bandwidth_bps);
  Format.printf "  segments acked %d@." (base.Tcp.Sender_common.una + 1);
  Format.printf "  counters       %a@." Tcp.Counters.pp
    base.Tcp.Sender_common.counters;
  Format.printf "  drops at gw    %d@." (Net.Topology.drops_of_flow topology 0);
  Format.printf "  recoveries     %d entered, %d clean exits@."
    (List.length trace.Stats.Flow_trace.recovery_entries)
    (List.length trace.Stats.Flow_trace.recovery_exits)

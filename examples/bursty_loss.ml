(* Anatomy of one Robust-Recovery episode.

   Forces a 4-packet loss burst inside one window (like the paper's
   Figure 3 walk-through, where segments 4, 5, 7 and 8 of a window are
   dropped) and narrates the retreat and probe sub-phases as they
   happen: when recovery is entered, how actnum/ndup evolve at each
   partial-ACK RTT boundary, and the state of cwnd at exit.

     dune exec examples/bursty_loss.exe *)

let dropped_segments = [ 35; 36; 38; 39 ]

let () =
  let engine = Sim.Engine.create () in
  let config = Net.Dumbbell.paper_config ~flows:1 in
  let params =
    { Tcp.Params.default with initial_ssthresh = 16.0; rwnd = 20 }
  in
  let rules =
    List.map
      (fun seq -> { Net.Loss.flow = 0; seq; occurrence = 1 })
      dropped_segments
  in
  let topology_cell = ref None in
  let wrap_bottleneck next =
    Net.Loss.drop_list ~rules
      ~on_drop:(fun packet ->
        Format.printf "%.3f  x  segment %d dropped at the gateway@."
          (Sim.Engine.now engine)
          (Net.Packet.seq_exn packet);
        Option.iter
          (fun topology -> Net.Topology.count_drop topology packet)
          !topology_cell)
      next
  in
  let topology =
    Net.Dumbbell.topology
      (Net.Dumbbell.create ~engine ~config ~rng:(Sim.Rng.create 5L)
         ~taps:[ ("gateway", wrap_bottleneck) ]
         ())
  in
  topology_cell := Some topology;
  let agent, handle =
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

  (* Narrate by observing the recovery state around every delivered
     ACK. *)
  let base = agent.Tcp.Agent.base in
  let previous = ref None in
  let describe (view : Core.Rr.probe_view) =
    match view.Core.Rr.stage with
    | Core.Rr.Retreat ->
      Printf.sprintf "retreat: ndup=%d (1 new segment per 2 dup ACKs)"
        view.Core.Rr.ndup
    | Core.Rr.Probe ->
      Printf.sprintf "probe: actnum=%d ndup=%d exit_point=%d further=%d"
        view.Core.Rr.actnum view.Core.Rr.ndup view.Core.Rr.exit_point
        view.Core.Rr.further_losses
  in
  Net.Topology.on_ack topology ~flow:0 (fun packet ->
      agent.Tcp.Agent.deliver_ack packet;
      let now = Sim.Engine.now engine in
      (match (Core.Rr.inspect handle, !previous) with
      | Some _, None ->
        Format.printf
          "%.3f  >> fast retransmit: recovery entered (cwnd frozen at %.1f, \
           ssthresh -> %.1f)@."
          now
          (Tcp.Sender_common.cwnd base)
          (Tcp.Sender_common.ssthresh base)
      | Some view, Some old when describe view <> describe old ->
        Format.printf "%.3f     %s@." now (describe view)
      | Some _, Some _ -> ()
      | None, Some _ ->
        Format.printf
          "%.3f  << recovery exited: cwnd <- actnum = %.1f segments, back to \
           congestion avoidance@."
          now
          (Tcp.Sender_common.cwnd base)
      | None, None -> ());
      previous := Core.Rr.inspect handle);

  Workload.Ftp.persistent ~engine ~agent ~at:0.0;
  Sim.Engine.run_until engine ~time:6.0;

  Format.printf "@.summary: %a; %d clean recovery exit(s)@." Tcp.Counters.pp
    base.Tcp.Sender_common.counters
    (Core.Rr.recoveries handle)

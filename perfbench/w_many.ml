(* The many-flow part of the simulate workload:
   Experiments.Many_flow.run with 50k flows. Its traffic does not
   depend on the seed (drop-tail trunks, fixed stagger); the seed
   reaches only the goodput reservoir sample. *)

open Experiments

let kind = "many-flow"

(* Digest of the first pass's outputs at the default seed. *)
let pinned = "3b92bae3fd51d6f306c2dba6eb637bcf"

let flows = 50_000

let horizon = 20.0

(* Many_flow.run's defaults, restated for the traced composition. *)
let bottleneck_bps = Sim.Units.mbps 100.0

let buffer = 1024

let stagger = 1.0

let params = { Tcp.Params.default with rwnd = 20 }

let digest (o : Many_flow.outcome) =
  Harness.digest_of_string
    (Printf.sprintf "%d,%h,%h,%h,%h,%h,%s,%h,%d,%d,%d,%d" o.Many_flow.flows
       o.Many_flow.duration o.Many_flow.bottleneck_bps
       o.Many_flow.aggregate_goodput_bps
       (Stats.Welford.mean o.Many_flow.goodput)
       (Stats.Welford.stddev o.Many_flow.goodput)
       (String.concat ";"
          (List.map (fun (q, v) -> Printf.sprintf "%h=%h" q v) o.Many_flow.quantiles))
       o.Many_flow.jain o.Many_flow.delivered_segments o.Many_flow.retransmits
       o.Many_flow.timeouts o.Many_flow.drops)

(* Segments: acknowledged segments plus retransmissions — the flock's
   aggregate accessors have no first-send counter. *)
let segments (o : Many_flow.outcome) = o.Many_flow.delivered_segments + o.Many_flow.retransmits

let run ~seed ~duration =
  Harness.guard "Many_flow.run" (fun () ->
      Harness.Done
        (digest (Harness.call (fun () -> Many_flow.run ~flows ~duration ~seed ()) ())))

(* Many_flow.run rebuilt from the same public calls, with every layer
   boundary timed: identity taps on all six links, wrapped injectors
   and dispatch, the engine run and the summary pass. Returns the same
   outcome, so its digest must match the plain run's. *)
let composed ~seed ~duration =
  let module Span = Perfbench_kit.Span in
  let r = Harness.recorder in
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create seed in
  let spec = Many_flow.spec ~bottleneck_bps ~buffer in
  let taps =
    List.map
      (fun (name, _) -> (name, fun next -> Span.wrap r Harness.k_tap next))
      spec.Net.Topology.links
  in
  let topo =
    Net.Topology.create ~engine ~spec ~rng ~taps
      ~flows:(Array.make flows { Net.Topology.src = "src"; dst = "dst" })
      ()
  in
  let inject_data ~flow packet =
    Span.enter r Harness.k_inject;
    Net.Topology.inject_data topo ~flow packet;
    Span.leave r
  and inject_ack ~flow packet =
    Span.enter r Harness.k_inject;
    Net.Topology.inject_ack topo ~flow packet;
    Span.leave r
  in
  let flock = Tcp.Flock.create ~engine ~params ~flows ~inject_data ~inject_ack () in
  Net.Topology.set_data_dispatch topo
    (Span.wrap r Harness.k_flock_data (Tcp.Flock.deliver_data flock));
  Net.Topology.set_ack_dispatch topo
    (Span.wrap r Harness.k_flock_ack (Tcp.Flock.deliver_ack flock));
  Tcp.Flock.start flock ~stagger ();
  Span.wrap r Harness.k_engine (fun () -> Sim.Engine.run_until engine ~time:duration) ();
  let outcome =
    Span.wrap r Harness.k_summary
      (fun () ->
        let welford = Stats.Welford.create () in
        let reservoir = Stats.Reservoir.create ~capacity:2048 ~rng:(Sim.Rng.split rng) () in
        let sum = ref 0.0 and sumsq = ref 0.0 in
        for flow = 0 to flows - 1 do
          let goodput = Tcp.Flock.goodput_bps flock flow ~duration in
          Stats.Welford.add welford goodput;
          Stats.Reservoir.add reservoir goodput;
          sum := !sum +. goodput;
          sumsq := !sumsq +. (goodput *. goodput)
        done;
        let quantile_points = [ 0.10; 0.50; 0.90; 0.99 ] in
        {
          Many_flow.flows;
          duration;
          bottleneck_bps;
          aggregate_goodput_bps = !sum;
          goodput = welford;
          quantiles =
            List.combine quantile_points (Stats.Reservoir.quantiles reservoir quantile_points);
          jain =
            (if !sumsq = 0.0 then 1.0
             else !sum *. !sum /. (float_of_int flows *. !sumsq));
          delivered_segments = Tcp.Flock.total_acked_segments flock;
          retransmits = Tcp.Flock.total_retransmits flock;
          timeouts = Tcp.Flock.total_timeouts flock;
          drops = Net.Topology.total_drops topo;
        })
      ()
  in
  (outcome, topo)

type t = { seed : int64; counts : Scen.counts  (** of one full pass *) }

(* The reference pass, outside the timed loop. The flock counts no
   ACKs and the outcome no link dequeues: the traced pass supplies
   both. *)
let prepare ~seed =
  let reference = Many_flow.run ~flows ~duration:horizon ~seed:(Int64.of_int seed) () in
  let ops = [ Harness.Done (digest reference) ] in
  Harness.check ~kind ops;
  Harness.pin ~kind ~seed ~pinned ops;
  {
    seed = Int64.of_int seed;
    counts =
      {
        Scen.zero with
        Scen.segments = segments reference;
        retransmits = reference.Many_flow.retransmits;
        timeouts = reference.Many_flow.timeouts;
        drops = reference.Many_flow.drops;
      };
  }

let plain t () = Harness.check ~kind [ run ~seed:t.seed ~duration:horizon ]

let setup t () = Harness.check ~kind:(kind ^ " set-up") [ run ~seed:t.seed ~duration:0.001 ]

(* One composed run; returns the packets its links dequeued. *)
let traced t () =
  let outcome, topo = Harness.call (fun () -> composed ~seed:t.seed ~duration:horizon) () in
  Harness.check ~kind [ Harness.Done (digest outcome) ];
  List.fold_left
    (fun acc (_, q) -> acc + q.Net.Queue_disc.stats.Net.Queue_disc.dequeued)
    0 (Net.Topology.queues topo)

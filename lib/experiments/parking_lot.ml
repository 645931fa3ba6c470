(* Parking-lot topology experiment: long flows crossing k bottlenecks
   against per-hop cross traffic.

   The classic multi-bottleneck result: a flow traversing every hop
   pays the loss rate of each bottleneck and so falls below the
   single-hop cross flows' share — increasingly so with more hops.
   This is the first experiment to use a general {!Net.Topology} graph
   through {!Scenario} rather than the paper's dumbbell. *)

type outcome = int Variant_table.t

let duration = 30.0

let long_flows = 2

let cross_per_hop = 2

let topology ~hops =
  let config =
    {
      (Net.Dumbbell.paper_config ~flows:(long_flows + (hops * cross_per_hop))) with
      Net.Dumbbell.bottleneck_delay = Sim.Units.ms 16.0;
    }
  in
  Scenario.parking_lot ~hops ~long_flows ~cross_per_hop ~config

let cell hops variant ~seed =
  let flows = long_flows + (hops * cross_per_hop) in
  let t =
    Scenario.run
      (Scenario.make
         ~topology:(topology ~hops)
         ~flows:(List.init flows (fun _ -> Scenario.flow variant))
         ~params:{ Tcp.Params.default with rwnd = 20 }
         ~seed ~duration ())
  in
  let goodput flow = Scenario.goodput_bps t ~flow ~t0:0.0 ~t1:duration in
  let mean_over lo hi =
    let n = hi - lo in
    let sum = ref 0.0 in
    for flow = lo to hi - 1 do
      sum := !sum +. goodput flow
    done;
    !sum /. float_of_int n
  in
  let drops_over lo hi =
    let sum = ref 0 in
    for flow = lo to hi - 1 do
      sum := !sum + Scenario.drops t ~flow
    done;
    float_of_int !sum
  in
  [|
    mean_over 0 long_flows;
    mean_over long_flows flows;
    drops_over 0 long_flows;
    drops_over long_flows flows;
  |]

let run ?(seed = 7L) () =
  Variant_table.run ~rows:[ 1; 3 ] ~variants:Core.Variant.[ Newreno; Sack; Rr ]
    ~seeds:[ seed ] cell

let report outcome =
  Variant_table.render_long
    ~keys:
      [
        ("variant", fun (_, variant) -> Core.Variant.name variant);
        ("hops", fun (hops, _) -> string_of_int hops);
      ]
    ~columns:
      [
        Variant_table.kbps "long (Kbps)" 0;
        Variant_table.kbps "cross (Kbps)" 1;
        ("long/cross", fun m -> Printf.sprintf "%.2f" (m.(0) /. m.(1)));
        Variant_table.integer "long drops" 2;
        Variant_table.integer "cross drops" 3;
      ]
    outcome
  ^ Printf.sprintf
      "\n%d long flow(s) over every bottleneck vs %d cross flow(s) per hop, \
       %.0f s: multi-hop flows pay every bottleneck's loss rate, so their \
       share falls as hops grow.\n"
      long_flows cross_per_hop duration

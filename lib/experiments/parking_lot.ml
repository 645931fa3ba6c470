(* Parking-lot topology experiment: long flows crossing k bottlenecks
   against per-hop cross traffic.

   The classic multi-bottleneck result: a flow traversing every hop
   pays the loss rate of each bottleneck and so falls below the
   single-hop cross flows' share — increasingly so with more hops.
   This is the first experiment to use a general {!Net.Topology} graph
   through {!Scenario} rather than the paper's dumbbell. *)

type row = {
  variant : Core.Variant.t;
  hops : int;
  long_goodput_bps : float;  (* mean over the long flows *)
  cross_goodput_bps : float;  (* mean over all cross flows *)
  ratio : float;  (* long / cross *)
  long_drops : int;
  cross_drops : int;
}

type outcome = { duration : float; rows : row list }

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

let run_case ~seed ~duration ~hops variant =
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
    !sum
  in
  let long_goodput_bps = mean_over 0 long_flows in
  let cross_goodput_bps = mean_over long_flows flows in
  {
    variant;
    hops;
    long_goodput_bps;
    cross_goodput_bps;
    ratio = long_goodput_bps /. cross_goodput_bps;
    long_drops = drops_over 0 long_flows;
    cross_drops = drops_over long_flows flows;
  }

let run ?(variants = Core.Variant.[ Newreno; Sack; Rr ]) ?(hop_counts = [ 1; 3 ])
    ?(seed = 7L) ?(duration = 30.0) () =
  {
    duration;
    rows =
      List.concat_map
        (fun variant ->
          List.map (fun hops -> run_case ~seed ~duration ~hops variant) hop_counts)
        variants;
  }

let report outcome =
  let header =
    [
      "variant";
      "hops";
      "long (Kbps)";
      "cross (Kbps)";
      "long/cross";
      "long drops";
      "cross drops";
    ]
  in
  let rows =
    List.map
      (fun row ->
        [
          Core.Variant.name row.variant;
          string_of_int row.hops;
          Printf.sprintf "%.1f" (row.long_goodput_bps /. 1e3);
          Printf.sprintf "%.1f" (row.cross_goodput_bps /. 1e3);
          Printf.sprintf "%.2f" row.ratio;
          string_of_int row.long_drops;
          string_of_int row.cross_drops;
        ])
      outcome.rows
  in
  Stats.Text_table.render ~header rows
  ^ Printf.sprintf
      "\n%d long flow(s) over every bottleneck vs %d cross flow(s) per hop, \
       %.0f s: multi-hop flows pay every bottleneck's loss rate, so their \
       share falls as hops grow.\n"
      long_flows cross_per_hop outcome.duration

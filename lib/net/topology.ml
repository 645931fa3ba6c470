type queue_spec = Dumbbell_config.gateway =
  | Droptail of { capacity : int }
  | Red of { capacity : int; params : Red.params }

type link_spec = {
  from_node : string;
  to_node : string;
  bandwidth_bps : float;
  delay : float;
  queue : queue_spec;
}

type route = { target : string; via : string }

type node_spec = {
  node : string;
  routes : route list;
  default_route : string option;
}

type spec = {
  nodes : node_spec list;
  links : (string * link_spec) list;
}

type endpoint = { src : string; dst : string }

type wrap = (Packet.t -> unit) -> Packet.t -> unit

(* Compiled per-node forwarding state. A node with explicit routes gets
   a dense [row] indexed by destination node id, holding the link id
   to take ([default_link] where no explicit route applies, -1 = no
   route); a node without (every host) keeps [row] empty and sends
   everything on [default_link]. The lookup is one array read: no
   hash, no compare, no option. Rows cost (routed nodes x nodes)
   words, which is why the topology strings cap their sizes. *)
type node_state = {
  name : string;
  default_link : int;
  row : int array;
}

type t = {
  link_of_name : (string, int) Hashtbl.t;
  link_names : string array;
  nodes : node_state array;
  links : Link.t option array;  (* filled during realization, in order *)
  entries : (Packet.t -> unit) array;  (* tap-wrapped link entry points *)
  flow_src : int array;  (* node id per flow *)
  flow_dst : int array;
  endpoints : endpoint array;
  data_handlers : (Packet.t -> unit) array;
  ack_handlers : (Packet.t -> unit) array;
  mutable data_dispatch : Packet.t -> unit;
  mutable ack_dispatch : Packet.t -> unit;
  drops : int array;
  mutable queue_list : (string * Queue_disc.t) list;  (* link order *)
  red : (int, Red.drop_stats) Hashtbl.t;  (* link id -> stats *)
}

(* -- validation ----------------------------------------------------- *)

let invalid fmt = Printf.ksprintf invalid_arg fmt

let index_names ~what names =
  let table = Hashtbl.create (List.length names) in
  List.iteri
    (fun i name ->
      if Hashtbl.mem table name then invalid "Topology: duplicate %s %S" what name;
      Hashtbl.add table name i)
    names;
  table

let compile_spec (spec : spec) =
  let node_of_name =
    index_names ~what:"node" (List.map (fun n -> n.node) spec.nodes)
  in
  let link_of_name =
    index_names ~what:"link" (List.map fst spec.links)
  in
  let node_id name =
    match Hashtbl.find_opt node_of_name name with
    | Some id -> id
    | None -> invalid "Topology: undeclared node %S" name
  in
  let link_id name =
    match Hashtbl.find_opt link_of_name name with
    | Some id -> id
    | None -> invalid "Topology: undeclared link %S" name
  in
  let links = Array.of_list spec.links in
  Array.iter
    (fun (name, l) ->
      ignore (node_id l.from_node);
      ignore (node_id l.to_node);
      if Float.is_nan l.bandwidth_bps || l.bandwidth_bps = infinity then
        invalid "Topology: link %S bandwidth not finite" name;
      if l.bandwidth_bps <= 0.0 then
        invalid "Topology: link %S bandwidth <= 0" name;
      if Float.is_nan l.delay || l.delay = infinity then
        invalid "Topology: link %S delay not finite" name;
      if l.delay < 0.0 then invalid "Topology: link %S negative delay" name;
      match l.queue with
      | Droptail { capacity } | Red { capacity; _ } ->
        if capacity < 1 then invalid "Topology: link %S capacity < 1" name)
    links;
  let attached = Array.make (List.length spec.nodes) false in
  Array.iter
    (fun (_, l) ->
      attached.(node_id l.from_node) <- true;
      attached.(node_id l.to_node) <- true)
    links;
  let n_nodes = List.length spec.nodes in
  let unset = -2 in
  let nodes =
    Array.of_list
      (List.map
         (fun n ->
           let here = node_id n.node in
           let row = if n.routes = [] then [||] else Array.make n_nodes unset in
           List.iter
             (fun { target; via } ->
               let target = node_id target in
               let via = link_id via in
               let _, l = links.(via) in
               if node_id l.from_node <> here then
                 invalid "Topology: route at %S via %S does not leave %S"
                   n.node (fst links.(via)) n.node;
               if row.(target) <> unset then
                 invalid "Topology: duplicate route at %S" n.node;
               row.(target) <- via)
             n.routes;
           let default_link =
             match n.default_route with
             | None -> -1
             | Some via ->
               let via = link_id via in
               let _, l = links.(via) in
               if node_id l.from_node <> here then
                 invalid "Topology: default route at %S via %S does not leave %S"
                   n.node (fst links.(via)) n.node;
               via
           in
           Array.iteri (fun i via -> if via = unset then row.(i) <- default_link) row;
           { name = n.node; default_link; row })
         spec.nodes)
  in
  Array.iteri
    (fun i ok -> if not ok then invalid "Topology: node %S attached to no link" nodes.(i).name)
    attached;
  (node_of_name, link_of_name, links, nodes)

(* The link out of [node] toward [dst], or -1 when there is none. *)
let next_hop nodes ~node ~dst =
  let state = Array.unsafe_get nodes node in
  let row = state.row in
  if Array.length row = 0 then state.default_link else row.(dst)
  [@@inline]

let validate spec ~flows =
  let node_of_name, _, links, nodes = compile_spec spec in
  let node_id name =
    match Hashtbl.find_opt node_of_name name with
    | Some id -> id
    | None -> invalid "Topology: flow endpoint at undeclared node %S" name
  in
  let n_nodes = Array.length nodes in
  (* Paths are shared across flows; check each distinct (src, dst) node
     pair once, in both directions. *)
  let checked = Hashtbl.create 64 in
  let walk ~src ~dst =
    let key = (src * n_nodes) + dst in
    if not (Hashtbl.mem checked key) then begin
      Hashtbl.add checked key ();
      let rec step node hops =
        if node <> dst then
          if hops > n_nodes then
            invalid "Topology: route from %S to %S loops" nodes.(src).name
              nodes.(dst).name
          else
            let link = next_hop nodes ~node ~dst in
            if link < 0 then
              invalid "Topology: no route toward %S at %S" nodes.(dst).name
                nodes.(node).name
            else
              let _, l = links.(link) in
              step (Hashtbl.find node_of_name l.to_node) (hops + 1)
      in
      step src 0
    end
  in
  Array.iter
    (fun { src; dst } ->
      let src = node_id src and dst = node_id dst in
      if src = dst then
        invalid "Topology: flow source and destination coincide at %S"
          nodes.(src).name;
      walk ~src ~dst;
      walk ~src:dst ~dst:src)
    flows

(* -- realization ---------------------------------------------------- *)

let count_drop t packet =
  let flow = packet.Packet.flow in
  if flow >= 0 && flow < Array.length t.drops then
    t.drops.(flow) <- t.drops.(flow) + 1

let drops_of_flow t flow = t.drops.(flow)

let total_drops t = Array.fold_left ( + ) 0 t.drops

(* Destination node of a packet: data travels to the flow's [dst],
   ACKs back to its [src]. *)
let destination t packet =
  let flow = packet.Packet.flow in
  if flow < 0 || flow >= Array.length t.flow_src then
    invalid_arg "Topology: packet with unknown flow id"
  else
    if Packet.is_data packet then t.flow_dst.(flow) else t.flow_src.(flow)
  [@@inline]

let forward t ~node ~dst packet =
  let link = next_hop t.nodes ~node ~dst in
  if link >= 0 then t.entries.(link) packet
  else
    invalid "Topology: no route toward %S at %S" t.nodes.(dst).name
      t.nodes.(node).name

let arrive t ~node packet =
  let dst = destination t packet in
  if dst = node then
    if Packet.is_data packet then t.data_dispatch packet
    else t.ack_dispatch packet
  else forward t ~node ~dst packet

let create ~engine ~spec ~rng ?(taps = []) ?(on_drop = fun _ -> ())
    ~flows:flow_endpoints () =
  validate spec ~flows:flow_endpoints;
  let node_of_name, link_of_name, link_specs, nodes = compile_spec spec in
  let n_links = Array.length link_specs in
  let n_flows = Array.length flow_endpoints in
  let flow_src = Array.make n_flows 0 and flow_dst = Array.make n_flows 0 in
  Array.iteri
    (fun i { src; dst } ->
      flow_src.(i) <- Hashtbl.find node_of_name src;
      flow_dst.(i) <- Hashtbl.find node_of_name dst)
    flow_endpoints;
  (* One shared placeholder handler: per-flow closures only exist once
     the caller installs them. *)
  let no_data (p : Packet.t) =
    failwith (Printf.sprintf "no data handler for flow %d" p.Packet.flow)
  in
  let no_ack (p : Packet.t) =
    failwith (Printf.sprintf "no ack handler for flow %d" p.Packet.flow)
  in
  let t =
    {
      link_of_name;
      link_names = Array.map fst link_specs;
      nodes;
      links = Array.make (max 1 n_links) None;
      entries = Array.make (max 1 n_links) ignore;
      flow_src;
      flow_dst;
      endpoints = Array.copy flow_endpoints;
      data_handlers = Array.make (max 1 n_flows) no_data;
      ack_handlers = Array.make (max 1 n_flows) no_ack;
      data_dispatch = ignore;
      ack_dispatch = ignore;
      drops = Array.make n_flows 0;
      queue_list = [];
      red = Hashtbl.create 2;
    }
  in
  t.data_dispatch <- (fun p -> t.data_handlers.(p.Packet.flow) p);
  t.ack_dispatch <- (fun p -> t.ack_handlers.(p.Packet.flow) p);
  let record_drop packet =
    count_drop t packet;
    on_drop packet
  in
  (* Realize links in spec order; RED queues split the rng stream here,
     so the draw order is part of the reproducibility contract. *)
  Array.iteri
    (fun i (name, l) ->
      let queue =
        match l.queue with
        | Droptail { capacity } ->
          Droptail.create ~capacity ~on_drop:record_drop ()
        | Red { capacity; params } ->
          let disc, stats =
            Red.create ~engine ~capacity ~params ~rng:(Sim.Rng.split rng)
              ~bandwidth_bps:l.bandwidth_bps ~on_drop:record_drop ()
          in
          Hashtbl.replace t.red i stats;
          disc
      in
      let to_node = Hashtbl.find node_of_name l.to_node in
      let link =
        Link.create ~engine ~bandwidth_bps:l.bandwidth_bps ~delay:l.delay
          ~queue
          ~dst:(fun packet -> arrive t ~node:to_node packet)
          ()
      in
      t.links.(i) <- Some link;
      t.entries.(i) <- Link.send link;
      t.queue_list <- (name, queue) :: t.queue_list)
    link_specs;
  t.queue_list <- List.rev t.queue_list;
  (* Taps wrap after every queue exists: applied in list order, each
     around the current entry (later taps outermost). *)
  let tapped = Hashtbl.create (max 1 (List.length taps)) in
  List.iter
    (fun (name, wrap) ->
      match Hashtbl.find_opt link_of_name name with
      | None -> invalid "Topology: tap on undeclared link %S" name
      | Some i ->
        if Hashtbl.mem tapped i then invalid "Topology: duplicate tap on %S" name;
        Hashtbl.add tapped i ();
        t.entries.(i) <- wrap t.entries.(i))
    taps;
  t

(* -- traffic -------------------------------------------------------- *)

let check_flow t flow =
  if flow < 0 || flow >= Array.length t.flow_src then
    invalid_arg "Topology: packet with unknown flow id"

let inject_data t ~flow packet =
  check_flow t flow;
  forward t ~node:t.flow_src.(flow) ~dst:t.flow_dst.(flow) packet

let inject_ack t ~flow packet =
  check_flow t flow;
  forward t ~node:t.flow_dst.(flow) ~dst:t.flow_src.(flow) packet

let on_data t ~flow handler =
  t.data_handlers.(flow) <- handler;
  t.data_dispatch <- (fun p -> t.data_handlers.(p.Packet.flow) p)

let on_ack t ~flow handler =
  t.ack_handlers.(flow) <- handler;
  t.ack_dispatch <- (fun p -> t.ack_handlers.(p.Packet.flow) p)

let set_data_dispatch t f = t.data_dispatch <- f

let set_ack_dispatch t f = t.ack_dispatch <- f

(* -- introspection -------------------------------------------------- *)

let flows t = Array.length t.flow_src

let endpoint t ~flow =
  check_flow t flow;
  t.endpoints.(flow)

let queues t = t.queue_list

let link_index t name =
  match Hashtbl.find_opt t.link_of_name name with
  | Some i -> i
  | None -> invalid "Topology: undeclared link %S" name

let queue t name = List.assoc t.link_names.(link_index t name) t.queue_list

let link t name =
  match t.links.(link_index t name) with
  | Some link -> link
  | None -> assert false

let link_names t = Array.to_list t.link_names

let red_stats t name = Hashtbl.find_opt t.red (link_index t name)

(* -- builders ------------------------------------------------------- *)

let droptail capacity = Droptail { capacity }

let dumbbell ~(config : Dumbbell_config.t) ?side_delays ?directions () =
  if config.flows < 1 then invalid_arg "Dumbbell.create: flows < 1";
  (match side_delays with
  | Some delays when Array.length delays <> config.flows ->
    invalid_arg "Dumbbell.create: side_delays length mismatch"
  | Some _ | None -> ());
  let directions =
    match directions with
    | Some array ->
      if Array.length array <> config.flows then
        invalid_arg "Dumbbell.create: directions length mismatch";
      array
    | None -> Array.make config.flows Dumbbell_config.Forward
  in
  let side_delay_of flow =
    match side_delays with
    | Some delays -> delays.(flow)
    | None -> config.side_delay
  in
  let n = config.flows in
  let s i = Printf.sprintf "s%d" i and k i = Printf.sprintf "k%d" i in
  let per_flow f = List.init n f in
  let side ~from_node ~to_node ~delay capacity =
    {
      from_node;
      to_node;
      bandwidth_bps = config.side_bandwidth_bps;
      delay;
      queue = droptail capacity;
    }
  in
  (* Realization order is the dumbbell's historical queue-creation
     order — exits, gateway (the only possible RNG consumer), reverse
     gateway, accesses — so RED draws the same stream as it always
     has. Link names are the historical queue names. *)
  let links =
    per_flow (fun i ->
        ( Printf.sprintf "exit_fwd%d" i,
          side ~from_node:"r2" ~to_node:(k i) ~delay:(side_delay_of i)
            config.access_capacity ))
    @ per_flow (fun i ->
          ( Printf.sprintf "exit_rev%d" i,
            side ~from_node:"r1" ~to_node:(s i) ~delay:(side_delay_of i)
              config.reverse_capacity ))
    @ [
        ( "gateway",
          {
            from_node = "r1";
            to_node = "r2";
            bandwidth_bps = config.bottleneck_bandwidth_bps;
            delay = config.bottleneck_delay;
            queue = config.gateway;
          } );
        ( "reverse_gateway",
          {
            from_node = "r2";
            to_node = "r1";
            bandwidth_bps = config.bottleneck_bandwidth_bps;
            delay = config.bottleneck_delay;
            queue = droptail config.reverse_capacity;
          } );
      ]
    @ per_flow (fun i ->
          ( Printf.sprintf "access_fwd%d" i,
            side ~from_node:(s i) ~to_node:"r1" ~delay:(side_delay_of i)
              config.access_capacity ))
    @ per_flow (fun i ->
          ( Printf.sprintf "access_rev%d" i,
            side ~from_node:(k i) ~to_node:"r2" ~delay:(side_delay_of i)
              config.reverse_capacity ))
  in
  let nodes =
    per_flow (fun i ->
        {
          node = s i;
          routes = [];
          default_route = Some (Printf.sprintf "access_fwd%d" i);
        })
    @ per_flow (fun i ->
          {
            node = k i;
            routes = [];
            default_route = Some (Printf.sprintf "access_rev%d" i);
          })
    @ [
        {
          node = "r1";
          routes =
            per_flow (fun i ->
                { target = s i; via = Printf.sprintf "exit_rev%d" i });
          default_route = Some "gateway";
        };
        {
          node = "r2";
          routes =
            per_flow (fun i ->
                { target = k i; via = Printf.sprintf "exit_fwd%d" i });
          default_route = Some "reverse_gateway";
        };
      ]
  in
  let endpoints =
    Array.init n (fun i ->
        match directions.(i) with
        | Dumbbell_config.Forward -> { src = s i; dst = k i }
        | Dumbbell_config.Backward -> { src = k i; dst = s i })
  in
  ({ nodes; links }, endpoints)

let parking_lot ~hops ~long_flows ~cross_per_hop ~(config : Dumbbell_config.t)
    () =
  if hops < 1 then invalid_arg "Topology.parking_lot: hops < 1";
  if long_flows < 1 then invalid_arg "Topology.parking_lot: long_flows < 1";
  if cross_per_hop < 0 then
    invalid_arg "Topology.parking_lot: cross_per_hop < 0";
  let g j = Printf.sprintf "g%d" j in
  (* Hosts: long flow i sources at ls<i> (on g0), sinks at lk<i> (on
     g<hops>); cross flow c of hop j sources at cs<j>_<c> (on g<j>),
     sinks at ck<j>_<c> (on g<j+1>). *)
  let hosts =
    List.init long_flows (fun i ->
        [
          (Printf.sprintf "ls%d" i, 0, Printf.sprintf "long%d" i);
          (Printf.sprintf "lk%d" i, hops, Printf.sprintf "long%d" i);
        ])
    @ List.concat
        (List.init hops (fun j ->
             List.init cross_per_hop (fun c ->
                 [
                   (Printf.sprintf "cs%d_%d" j c, j, Printf.sprintf "cross%d_%d" j c);
                   (Printf.sprintf "ck%d_%d" j c, j + 1, Printf.sprintf "cross%d_%d" j c);
                 ])))
  in
  let hosts = List.concat hosts in
  (* Bottlenecks first so RED (when configured) draws splits in hop
     order, then the reverse trunks, then per-host access/exit pairs. *)
  let trunk_links =
    List.init hops (fun j ->
        ( Printf.sprintf "bottleneck%d" j,
          {
            from_node = g j;
            to_node = g (j + 1);
            bandwidth_bps = config.bottleneck_bandwidth_bps;
            delay = config.bottleneck_delay;
            queue = config.gateway;
          } ))
    @ List.init hops (fun j ->
          ( Printf.sprintf "rbottleneck%d" j,
            {
              from_node = g (j + 1);
              to_node = g j;
              bandwidth_bps = config.bottleneck_bandwidth_bps;
              delay = config.bottleneck_delay;
              queue = droptail config.reverse_capacity;
            } ))
  in
  let host_links =
    List.concat_map
      (fun (host, at, _) ->
        [
          ( "acc_" ^ host,
            {
              from_node = host;
              to_node = g at;
              bandwidth_bps = config.side_bandwidth_bps;
              delay = config.side_delay;
              queue = droptail config.access_capacity;
            } );
          ( "exit_" ^ host,
            {
              from_node = g at;
              to_node = host;
              bandwidth_bps = config.side_bandwidth_bps;
              delay = config.side_delay;
              queue = droptail config.access_capacity;
            } );
        ])
      hosts
  in
  let host_nodes =
    List.map
      (fun (host, _, _) ->
        { node = host; routes = []; default_route = Some ("acc_" ^ host) })
      hosts
  in
  let gateway_nodes =
    List.init (hops + 1) (fun j ->
        let routes =
          List.filter_map
            (fun (host, at, _) ->
              if at = j then Some { target = host; via = "exit_" ^ host }
              else if at < j then
                Some { target = host; via = Printf.sprintf "rbottleneck%d" (j - 1) }
              else None (* at > j: forward default *))
            hosts
        in
        let default_route =
          if j < hops then Some (Printf.sprintf "bottleneck%d" j)
          else Some (Printf.sprintf "rbottleneck%d" (j - 1))
        in
        { node = g j; routes; default_route })
  in
  let endpoints =
    Array.of_list
      (List.init long_flows (fun i ->
           { src = Printf.sprintf "ls%d" i; dst = Printf.sprintf "lk%d" i })
      @ List.concat
          (List.init hops (fun j ->
               List.init cross_per_hop (fun c ->
                   {
                     src = Printf.sprintf "cs%d_%d" j c;
                     dst = Printf.sprintf "ck%d_%d" j c;
                   }))))
  in
  ( { nodes = host_nodes @ gateway_nodes; links = trunk_links @ host_links },
    endpoints )

let fat_tree ~pods ~hosts_per_pod ~(config : Dumbbell_config.t) () =
  if pods < 2 then invalid_arg "Topology.fat_tree: pods < 2";
  if hosts_per_pod < 1 then invalid_arg "Topology.fat_tree: hosts_per_pod < 1";
  let agg p = Printf.sprintf "agg%d" p in
  let host p h = Printf.sprintf "h%d_%d" p h in
  let pod_list f = List.init pods f in
  let trunk_links =
    pod_list (fun p ->
        ( Printf.sprintf "up%d" p,
          {
            from_node = agg p;
            to_node = "core";
            bandwidth_bps = config.bottleneck_bandwidth_bps;
            delay = config.bottleneck_delay;
            queue = config.gateway;
          } ))
    @ pod_list (fun p ->
          ( Printf.sprintf "down%d" p,
            {
              from_node = "core";
              to_node = agg p;
              bandwidth_bps = config.bottleneck_bandwidth_bps;
              delay = config.bottleneck_delay;
              queue = config.gateway;
            } ))
  in
  let host_links =
    List.concat
      (pod_list (fun p ->
           List.concat
             (List.init hosts_per_pod (fun h ->
                  [
                    ( Printf.sprintf "hacc%d_%d" p h,
                      {
                        from_node = host p h;
                        to_node = agg p;
                        bandwidth_bps = config.side_bandwidth_bps;
                        delay = config.side_delay;
                        queue = droptail config.access_capacity;
                      } );
                    ( Printf.sprintf "hexit%d_%d" p h,
                      {
                        from_node = agg p;
                        to_node = host p h;
                        bandwidth_bps = config.side_bandwidth_bps;
                        delay = config.side_delay;
                        queue = droptail config.access_capacity;
                      } );
                  ]))))
  in
  let nodes =
    ({ node = "core"; routes = []; default_route = None }
    |> fun core ->
     {
       core with
       routes =
         List.concat
           (pod_list (fun p ->
                List.init hosts_per_pod (fun h ->
                    { target = host p h; via = Printf.sprintf "down%d" p })));
     })
    :: pod_list (fun p ->
           {
             node = agg p;
             routes =
               List.init hosts_per_pod (fun h ->
                   { target = host p h; via = Printf.sprintf "hexit%d_%d" p h });
             default_route = Some (Printf.sprintf "up%d" p);
           })
    @ List.concat
        (pod_list (fun p ->
             List.init hosts_per_pod (fun h ->
                 {
                   node = host p h;
                   routes = [];
                   default_route = Some (Printf.sprintf "hacc%d_%d" p h);
                 })))
  in
  let endpoints =
    Array.of_list
      (List.concat
         (pod_list (fun p ->
              List.init hosts_per_pod (fun h ->
                  { src = host p h; dst = host ((p + 1) mod pods) h }))))
  in
  ({ nodes; links = trunk_links @ host_links }, endpoints)

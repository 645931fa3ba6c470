type gateway = Dumbbell_config.gateway =
  | Droptail of { capacity : int }
  | Red of { capacity : int; params : Red.params }

type direction = Dumbbell_config.direction = Forward | Backward

type config = Dumbbell_config.t = {
  flows : int;
  side_bandwidth_bps : float;
  side_delay : float;
  bottleneck_bandwidth_bps : float;
  bottleneck_delay : float;
  gateway : gateway;
  access_capacity : int;
  reverse_capacity : int;
}

let paper_config = Dumbbell_config.paper

type t = {
  topo : Topology.t;
  queues : (string * Queue_disc.t) list;  (* historical naming order *)
}

let create ~engine ~config ~rng ?(taps = []) ?on_drop ?side_delays
    ?directions () =
  let spec, endpoints = Topology.dumbbell ~config ?side_delays ?directions () in
  let topo =
    Topology.create ~engine ~spec ~rng ~taps ?on_drop ~flows:endpoints ()
  in
  let per prefix =
    List.init config.flows (fun i -> Printf.sprintf "%s%d" prefix i)
  in
  let names =
    ("gateway" :: "reverse_gateway" :: per "access_fwd")
    @ per "access_rev" @ per "exit_fwd" @ per "exit_rev"
  in
  let queues = List.map (fun name -> (name, Topology.queue topo name)) names in
  { topo; queues }

let topology t = t.topo

let queues t = t.queues

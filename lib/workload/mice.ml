type profile = {
  mean_size_bytes : float;
  size_shape : float;
  mean_think : float;
  think_shape : float;
  start : float;
  until : float;
}

let default =
  {
    mean_size_bytes = 12_000.0;
    size_shape = 1.3;
    mean_think = 0.5;
    think_shape = 1.5;
    start = 0.0;
    until = infinity;
  }

type completion = { started : float; finished : float; segments : int }

type t = {
  engine : Sim.Engine.t;
  agent : Tcp.Agent.t;
  rng : Sim.Rng.t;
  profile : profile;
  mutable bursts : int;
  mutable finished_bursts : int;
  mutable segments_supplied : int;
  mutable completions : completion list;  (* reversed *)
}

let bursts t = t.bursts

let finished_bursts t = t.finished_bursts

let segments_supplied t = t.segments_supplied

let completions t = List.rev t.completions

let mean_completion_time t =
  match t.completions with
  | [] -> None
  | cs ->
    let sum =
      List.fold_left (fun acc c -> acc +. (c.finished -. c.started)) 0.0 cs
    in
    Some (sum /. float_of_int (List.length cs))

(* Pareto scale (minimum value) giving the requested mean:
   mean = scale * shape / (shape - 1) for shape > 1. *)
let scale_of_mean ~mean ~shape = mean *. (shape -. 1.0) /. shape

let rec start_burst t =
  let p = t.profile in
  let bytes =
    Sim.Rng.pareto t.rng ~shape:p.size_shape
      ~scale:(scale_of_mean ~mean:p.mean_size_bytes ~shape:p.size_shape)
  in
  let base = t.agent.Tcp.Agent.base in
  let mss = base.Tcp.Sender_common.params.Tcp.Params.mss in
  let segments = Ftp.segments_of_bytes ~mss (int_of_float (Float.ceil bytes)) in
  let started = Sim.Engine.now t.engine in
  t.bursts <- t.bursts + 1;
  t.segments_supplied <- t.segments_supplied + segments;
  base.Tcp.Sender_common.completed <- false;
  base.Tcp.Sender_common.on_complete <-
    (fun () -> finish_burst t ~started ~segments);
  Tcp.Agent.supply_data t.agent ~segments

and finish_burst t ~started ~segments =
  let finished = Sim.Engine.now t.engine in
  t.finished_bursts <- t.finished_bursts + 1;
  t.completions <- { started; finished; segments } :: t.completions;
  let p = t.profile in
  let think =
    Sim.Rng.pareto t.rng ~shape:p.think_shape
      ~scale:(scale_of_mean ~mean:p.mean_think ~shape:p.think_shape)
  in
  let next = finished +. think in
  if next < p.until then
    Sim.Engine.schedule_at t.engine ~time:next (fun () -> start_burst t)

let create ~engine ~agent ~rng profile =
  if profile.size_shape <= 1.0 || profile.think_shape <= 1.0 then
    invalid_arg "Mice.create: Pareto shapes must exceed 1";
  if profile.mean_size_bytes <= 0.0 || profile.mean_think <= 0.0 then
    invalid_arg "Mice.create: means must be positive";
  if not (profile.start < profile.until) then
    invalid_arg "Mice.create: need start < until";
  let t =
    {
      engine;
      agent;
      rng;
      profile;
      bursts = 0;
      finished_bursts = 0;
      segments_supplied = 0;
      completions = [];
    }
  in
  Sim.Engine.schedule_at engine ~time:profile.start (fun () ->
      start_burst t);
  t

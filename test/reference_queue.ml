(* A deliberately naive implementation of Sim.Engine's interface, the
   oracle for the engine's property test: pending events live in a Map
   keyed by (time, insertion number), so the minimum binding is the
   next event and equal times fire in insertion order. It shares no
   code with the engine — no arena, no bit-encoded times, no buckets,
   no slot recycling — so a bug there cannot hide in both. *)

module Events = Map.Make (struct
  type t = float * int

  let compare = compare
end)

type t = {
  mutable now : float;
  mutable next : int;
  mutable events : (unit -> unit) Events.t;
  mutable stopped : bool;
}

type handle = float * int

let create () =
  { now = 0.0; next = 0; events = Events.empty; stopped = false }

let now t = t.now

let schedule_at t ~time fire =
  if time < t.now then invalid_arg "Reference_queue.schedule_at: past";
  let key = (time, t.next) in
  t.next <- t.next + 1;
  t.events <- Events.add key fire t.events;
  key

let schedule_after t ~delay fire = schedule_at t ~time:(t.now +. delay) fire

let schedule_unit_at t ~time fire = ignore (schedule_at t ~time fire : handle)

let schedule_unit t ~delay fire = schedule_unit_at t ~time:(t.now +. delay) fire

let cancel t key = t.events <- Events.remove key t.events

let pending t = Events.cardinal t.events

let rec drain t ~limit =
  match Events.min_binding_opt t.events with
  | Some (((time, _) as key), fire) when time <= limit && not t.stopped ->
    t.events <- Events.remove key t.events;
    t.now <- time;
    fire ();
    drain t ~limit
  | Some _ | None -> ()

let run t =
  t.stopped <- false;
  drain t ~limit:infinity

let run_until t ~time =
  t.stopped <- false;
  drain t ~limit:time;
  if (not t.stopped) && time > t.now then t.now <- time

let stop t = t.stopped <- true

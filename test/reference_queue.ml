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
}

let create () = { now = 0.0; next = 0; events = Events.empty }

let now t = t.now

let schedule_at t ~time fire =
  if time < t.now then invalid_arg "Reference_queue.schedule_at: past";
  t.events <- Events.add (time, t.next) fire t.events;
  t.next <- t.next + 1

let schedule_after t ~delay fire = schedule_at t ~time:(t.now +. delay) fire

let pending t = Events.cardinal t.events

let rec drain t ~limit =
  match Events.min_binding_opt t.events with
  | Some (((time, _) as key), fire) when time <= limit ->
    t.events <- Events.remove key t.events;
    t.now <- time;
    fire ();
    drain t ~limit
  | Some _ | None -> ()

let run t = drain t ~limit:infinity

let run_until t ~time =
  drain t ~limit:time;
  if time > t.now then t.now <- time

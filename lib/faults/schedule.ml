type transition = { at : float; up : bool }

type t = { transitions : transition list }

let transitions t = t.transitions

let is_empty t = t.transitions = []

let of_flaps pairs =
  let rec build last = function
    | [] -> []
    | (down_at, up_at) :: rest ->
      if down_at < 0.0 then invalid_arg "Schedule.of_flaps: negative time";
      if down_at <= last then
        invalid_arg "Schedule.of_flaps: flaps not strictly increasing";
      if up_at <= down_at then invalid_arg "Schedule.of_flaps: up_at <= down_at";
      { at = down_at; up = false }
      :: { at = up_at; up = true }
      :: build up_at rest
  in
  { transitions = build (-1.0) pairs }

let periodic ~period ~down_for ~until () =
  if period <= 0.0 then invalid_arg "Schedule.periodic: period <= 0";
  if down_for <= 0.0 || down_for >= period then
    invalid_arg "Schedule.periodic: need 0 < down_for < period";
  (* An outage straddling [until] still emits its restore, clamped to
     [until]: a driver that runs the engine exactly to the schedule
     horizon (Scenario runs [run_until ~time:duration]) then executes
     the restore as its last event, so the link never ends a schedule
     administratively down. A restore strictly past the horizon would
     be emitted but never fire. *)
  let rec build down_at =
    if down_at >= until then []
    else
      (down_at, Float.min (down_at +. down_for) until)
      :: build (down_at +. period)
  in
  of_flaps (build period)

let random ~rng ~mean_up ~mean_down ~until () =
  if mean_up <= 0.0 || mean_down <= 0.0 then
    invalid_arg "Schedule.random: means must be positive";
  let rec build now =
    let down_at = now +. Sim.Rng.exponential rng ~mean:mean_up in
    if down_at >= until then []
    else
      let up_at = down_at +. Sim.Rng.exponential rng ~mean:mean_down in
      (* Clamp a straddling restore as in [periodic]; recursion on the
         unclamped time ends the schedule either way. *)
      (down_at, Float.min up_at until) :: build up_at
  in
  of_flaps (build 0.0)

let sample ~engine ~probe ~interval ~until =
  if interval <= 0.0 then invalid_arg "Queue_monitor.sample: interval <= 0";
  let series = Series.create () in
  let rec tick () =
    let now = Sim.Engine.now engine in
    Series.add series ~time:now ~value:(float_of_int (probe ()));
    if now +. interval <= until then
      Sim.Engine.schedule_after engine ~delay:interval tick
  in
  Sim.Engine.schedule_after engine ~delay:0.0 tick;
  series

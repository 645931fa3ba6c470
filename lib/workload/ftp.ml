type completion = { started : float; finished : float }

let segments_of_bytes ~mss bytes =
  if bytes <= 0 then invalid_arg "Ftp.segments_of_bytes: bytes <= 0";
  (bytes + mss - 1) / mss

let persistent ~engine ~agent ~at =
  Sim.Engine.schedule_at engine ~time:at (fun () ->
      Tcp.Agent.supply_infinite agent)

let file ~engine ~agent ~at ~bytes ~on_complete =
  let base = agent.Tcp.Agent.base in
  let mss = base.Tcp.Sender_common.params.Tcp.Params.mss in
  let segments = segments_of_bytes ~mss bytes in
  Sim.Engine.schedule_at engine ~time:at (fun () ->
      base.Tcp.Sender_common.on_complete <-
        (fun () ->
          on_complete { started = at; finished = Sim.Engine.now engine });
      Tcp.Agent.supply_data agent ~segments)

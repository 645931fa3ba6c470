type t = {
  engine : Sim.Engine.t;
  flow : int;
  packet_bytes : int;
  interval : float;
  until : float;
  emit : Net.Packet.t -> unit;
  mutable uid : int;
  mutable sent : int;
}

let interval t = t.interval

let sent t = t.sent

let bytes_sent t = t.sent * t.packet_bytes

let rec tick t =
  let now = Sim.Engine.now t.engine in
  let packet =
    (* CBR payloads reuse the data-segment shape; seq is just a packet
       index, never interpreted by a receiver. *)
    Net.Packet.data ~uid:t.uid ~flow:t.flow ~seq:t.sent
      ~size_bytes:t.packet_bytes ~born:now
  in
  t.uid <- t.uid + 1;
  t.sent <- t.sent + 1;
  t.emit packet;
  let next = now +. t.interval in
  if next < t.until then
    Sim.Engine.schedule_unit_at t.engine ~time:next (fun () -> tick t)

let period ~rate_bps ~packet_bytes =
  Sim.Units.bits_of_bytes packet_bytes /. rate_bps

(* Float spacing only grows with magnitude, so an interval that moves
   the clock at [until] moves it at every earlier time: [tick] can
   never reschedule itself at the instant it fires. *)
let advances ~rate_bps ~packet_bytes ~until =
  Float.is_finite rate_bps && rate_bps > 0.0 && packet_bytes > 0
  && until +. period ~rate_bps ~packet_bytes > until

let create ~engine ~flow ~rate_bps ~packet_bytes ~at ~until ~emit () =
  if rate_bps <= 0.0 then invalid_arg "Cbr.create: rate_bps <= 0";
  if packet_bytes <= 0 then invalid_arg "Cbr.create: packet_bytes <= 0";
  if not (advances ~rate_bps ~packet_bytes ~until) then
    invalid_arg "Cbr.create: the packet interval does not advance the clock";
  let interval = period ~rate_bps ~packet_bytes in
  let t =
    { engine; flow; packet_bytes; interval; until; emit; uid = 0; sent = 0 }
  in
  if at < until then
    Sim.Engine.schedule_unit_at engine ~time:at (fun () -> tick t);
  t

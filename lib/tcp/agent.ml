type t = {
  name : string;
  flow : int;
  deliver_ack : Net.Packet.t -> unit;
  base : Sender_common.t;
  wants_sack : bool;
}

let create ~name ~wants_sack base recv_ack =
  let deliver_ack packet =
    if Net.Packet.is_data packet then
      invalid_arg (name ^ ": data packet delivered to sender")
    else if not base.Sender_common.completed then recv_ack packet
  in
  { name; flow = base.Sender_common.flow; deliver_ack; base; wants_sack }

let start t = Sender_common.start t.base

let supply_data t ~segments =
  if segments < 0 then invalid_arg "Agent.supply_data: negative";
  let base = t.base in
  let current =
    match base.Sender_common.app_limit with
    | Some n -> n
    | None -> invalid_arg "Agent.supply_data: source already infinite"
  in
  Sender_common.set_app_limit base (Some (current + segments));
  Sender_common.send_much base

let supply_infinite t =
  Sender_common.set_app_limit t.base None;
  Sender_common.send_much t.base

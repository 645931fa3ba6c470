(* A power-of-two ring over a packet array. Free slots hold
   [Packet.none], and [take] puts it back, so the ring never keeps a
   departed packet alive. It starts small and doubles when full; the
   disciplines above it enforce their own capacity. *)

type t = {
  mutable slots : Packet.t array;
  mutable head : int;  (* slot of the oldest packet *)
  mutable length : int;
}

let initial_slots = 16

let create () =
  { slots = Array.make initial_slots Packet.none; head = 0; length = 0 }

let length t = t.length

let is_empty t = t.length = 0

let grow t =
  let n = Array.length t.slots in
  let slots = Array.make (2 * n) Packet.none in
  let first = n - t.head in
  Array.blit t.slots t.head slots 0 first;
  Array.blit t.slots 0 slots first t.head;
  t.slots <- slots;
  t.head <- 0

let push t packet =
  if t.length = Array.length t.slots then grow t;
  let slots = t.slots in
  Array.unsafe_set slots
    ((t.head + t.length) land (Array.length slots - 1))
    packet;
  t.length <- t.length + 1

let take t =
  if t.length = 0 then Packet.none
  else begin
    let slots = t.slots in
    let packet = Array.unsafe_get slots t.head in
    Array.unsafe_set slots t.head Packet.none;
    t.head <- (t.head + 1) land (Array.length slots - 1);
    t.length <- t.length - 1;
    packet
  end

type stats = {
  mutable enqueued : int;
  mutable dropped : int;
  mutable dequeued : int;
  mutable bytes_dropped : int;
}

type event = Enqueued | Dropped | Dequeued

type t = {
  name : string;
  enqueue : Packet.t -> bool;
  dequeue : unit -> Packet.t;
  length : unit -> int;
  byte_length : unit -> int;
  stats : stats;
  observers : (event -> Packet.t -> unit) list ref;
}

let fresh_stats () =
  { enqueued = 0; dropped = 0; dequeued = 0; bytes_dropped = 0 }

let subscribe t f = t.observers := !(t.observers) @ [ f ]

(* A top-level recursive walk, not [List.iter] with a closure over the
   event: the closure would be allocated per packet. *)
let rec notify event packet = function
  | [] -> ()
  | f :: rest ->
    f event packet;
    notify event packet rest

(* The smart constructor owns event dispatch, so concrete disciplines
   only implement accept/drop/service policy and every discipline gets
   the same observer semantics for free. Events are constant
   constructors passed beside the packet, so notifying allocates
   nothing; an unobserved queue skips the walk, and the discipline's
   own result passes through. *)
let make ~name ~enqueue ~dequeue ~length ~byte_length ~stats () =
  let observers = ref [] in
  let enqueue packet =
    let accepted = enqueue packet in
    (match !observers with
    | [] -> ()
    | fs -> notify (if accepted then Enqueued else Dropped) packet fs);
    accepted
  in
  let dequeue () =
    let packet = dequeue () in
    (match !observers with
    | [] -> ()
    | fs -> if not (Packet.is_none packet) then notify Dequeued packet fs);
    packet
  in
  { name; enqueue; dequeue; length; byte_length; stats; observers }

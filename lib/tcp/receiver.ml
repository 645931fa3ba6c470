(* SACK blocks per ACK, and how long a delayed ACK may wait. *)
let max_sack_blocks = 3

let delack_timeout = 0.1

type t = {
  engine : Sim.Engine.t;
  flow : int;
  emit : Net.Packet.t -> unit;
  sack : bool;
  ack_size : int;
  delayed_ack : bool;
  mutable next_expected : int;
  out_of_order : Seqset.t;
  mutable last_block : (int * int) option;  (* block of most recent arrival *)
  mutable segments_received : int;
  mutable duplicates_received : int;
  mutable acks_sent : int;
  mutable uid_counter : int;
  mutable delack_pending : bool;  (* one in-order segment awaiting its ACK *)
  mutable delack_timer : Sim.Timer.t option;
}

let next_expected t = t.next_expected

let segments_received t = t.segments_received

let duplicates_received t = t.duplicates_received

let acks_sent t = t.acks_sent

let buffered t = Seqset.cardinal t.out_of_order

let sack_blocks t =
  if not t.sack then []
  else begin
    let all = Seqset.intervals t.out_of_order in
    (* Most recently updated block first, then the others ascending,
       capped at [max_sack_blocks]; reported half-open. *)
    let ordered =
      match t.last_block with
      | Some recent when List.mem recent all ->
        recent :: List.filter (fun block -> block <> recent) all
      | Some _ | None -> all
    in
    let rec take n = function
      | [] -> []
      | block :: rest -> if n = 0 then [] else block :: take (n - 1) rest
    in
    List.map
      (fun (first, last) -> (first, last + 1))
      (take max_sack_blocks ordered)
  end

let send_ack t =
  t.uid_counter <- t.uid_counter + 1;
  t.acks_sent <- t.acks_sent + 1;
  t.delack_pending <- false;
  Option.iter Sim.Timer.cancel t.delack_timer;
  let packet =
    Net.Packet.ack_bits ~uid:t.uid_counter ~flow:t.flow
      ~ackno:(t.next_expected - 1) ~sack:(sack_blocks t) ~size_bytes:t.ack_size
      ~born_bits:(Sim.Engine.now_bits t.engine)
  in
  t.emit packet

let create ~engine ~flow ~emit ?(sack = false) ?(ack_size = 40)
    ?(delayed_ack = false) () =
  let t =
    {
      engine;
      flow;
      emit;
      sack;
      ack_size;
      delayed_ack;
      next_expected = 0;
      out_of_order = Seqset.create ();
      last_block = None;
      segments_received = 0;
      duplicates_received = 0;
      acks_sent = 0;
      uid_counter = 0;
      delack_pending = false;
      delack_timer = None;
    }
  in
  if delayed_ack then
    t.delack_timer <-
      Some
        (Sim.Timer.create engine ~callback:(fun () ->
             if t.delack_pending then send_ack t));
  t

(* In-order arrival under delayed ACKs: acknowledge every second
   segment, or after the delack timeout. Duplicates, gaps and hole
   fills are acknowledged immediately by [deliver]. *)
let ack_in_order t =
  match t.delack_timer with
  | None -> send_ack t
  | Some timer ->
    if t.delack_pending then send_ack t
    else begin
      t.delack_pending <- true;
      Sim.Timer.restart timer ~after:delack_timeout
    end

let deliver t packet =
  if not (Net.Packet.is_data packet) then
    invalid_arg "Receiver.deliver: ACK packet"
  else begin
    let seq = Net.Packet.seq_exn packet in
    if seq < t.next_expected || Seqset.mem t.out_of_order seq then begin
      (* Duplicate (e.g. go-back-N resend): still acknowledged, at
         once. *)
      t.duplicates_received <- t.duplicates_received + 1;
      send_ack t
    end
    else if seq = t.next_expected then begin
      t.segments_received <- t.segments_received + 1;
      let filled_hole = not (Seqset.is_empty t.out_of_order) in
      (* Advance over any contiguous buffered segments. *)
      t.next_expected <- Seqset.first_gap_above t.out_of_order (seq + 1);
      Seqset.remove_below t.out_of_order t.next_expected;
      if Seqset.is_empty t.out_of_order then t.last_block <- None;
      if filled_hole then send_ack t else ack_in_order t
    end
    else begin
      t.segments_received <- t.segments_received + 1;
      ignore (Seqset.add t.out_of_order seq : bool);
      let block =
        List.find
          (fun (first, last) -> first <= seq && seq <= last)
          (Seqset.intervals t.out_of_order)
      in
      t.last_block <- Some block;
      (* Out-of-sequence: immediate duplicate ACK (§2.2). *)
      send_ack t
    end
  end

let create ~capacity ?(on_drop = fun _ -> ()) () =
  if capacity < 1 then invalid_arg "Droptail.create: capacity < 1";
  let fifo = Fifo.create () in
  let bytes = ref 0 in
  let stats = Queue_disc.fresh_stats () in
  let enqueue packet =
    if Fifo.length fifo >= capacity then begin
      stats.dropped <- stats.dropped + 1;
      stats.bytes_dropped <- stats.bytes_dropped + packet.Packet.size_bytes;
      on_drop packet;
      false
    end
    else begin
      Fifo.push fifo packet;
      bytes := !bytes + packet.Packet.size_bytes;
      stats.enqueued <- stats.enqueued + 1;
      true
    end
  in
  let dequeue () =
    let packet = Fifo.take fifo in
    if not (Packet.is_none packet) then begin
      bytes := !bytes - packet.Packet.size_bytes;
      stats.dequeued <- stats.dequeued + 1
    end;
    packet
  in
  Queue_disc.make ~name:"droptail" ~enqueue ~dequeue
    ~length:(fun () -> Fifo.length fifo)
    ~byte_length:(fun () -> !bytes)
    ~stats ()

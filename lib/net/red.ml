type params = {
  min_th : float;
  max_th : float;
  max_p : float;
  wq : float;
  mean_packet_size : int;
}

let paper_params =
  { min_th = 5.0; max_th = 20.0; max_p = 0.02; wq = 0.002; mean_packet_size = 1000 }

type drop_stats = {
  mutable early : int;
  mutable forced : int;
  mutable buffer_full : int;
}

type state = {
  engine : Sim.Engine.t;
  capacity : int;
  params : params;
  rng : Sim.Rng.t;
  fifo : Fifo.t;
  mutable bytes : int;
  mutable avg : float;
  (* Inter-drop packet count since the last early/forced drop; -1 outside
     the [min_th, max_th) band, per Floyd & Jacobson Fig. 2. *)
  mutable count : int;
  mutable idle_since : float option;  (* time the queue went empty *)
  mean_service_time : float;  (* per mean-size packet, for idle decay *)
  drop_stats : drop_stats;
  queue_stats : Queue_disc.stats;
  on_drop : Packet.t -> unit;
}

let validate params =
  if params.min_th <= 0.0 || params.max_th <= params.min_th then
    invalid_arg "Red.create: need 0 < min_th < max_th";
  if params.max_p <= 0.0 || params.max_p > 1.0 then
    invalid_arg "Red.create: need 0 < max_p <= 1";
  if params.wq <= 0.0 || params.wq >= 1.0 then
    invalid_arg "Red.create: need 0 < wq < 1"

let drop t packet ~cause =
  t.queue_stats.dropped <- t.queue_stats.dropped + 1;
  t.queue_stats.bytes_dropped <-
    t.queue_stats.bytes_dropped + packet.Packet.size_bytes;
  (match cause with
  | `Early -> t.drop_stats.early <- t.drop_stats.early + 1
  | `Forced -> t.drop_stats.forced <- t.drop_stats.forced + 1
  | `Buffer_full -> t.drop_stats.buffer_full <- t.drop_stats.buffer_full + 1);
  t.on_drop packet;
  false

let accept t packet =
  Fifo.push t.fifo packet;
  t.bytes <- t.bytes + packet.Packet.size_bytes;
  t.queue_stats.enqueued <- t.queue_stats.enqueued + 1;
  true

(* Decay the average across an idle period as if [m] mean-size packets
   had been serviced from an empty queue. *)
let update_average t =
  (match t.idle_since with
  | Some went_idle ->
    let idle = Sim.Engine.now t.engine -. went_idle in
    let m = idle /. t.mean_service_time in
    if m > 0.0 then t.avg <- t.avg *. ((1.0 -. t.params.wq) ** m);
    t.idle_since <- None
  | None -> ());
  let q = float_of_int (Fifo.length t.fifo) in
  t.avg <- ((1.0 -. t.params.wq) *. t.avg) +. (t.params.wq *. q)

let enqueue t packet =
  update_average t;
  let p = t.params in
  if t.avg >= p.max_th then begin
    t.count <- 0;
    drop t packet ~cause:`Forced
  end
  else if t.avg >= p.min_th then begin
    t.count <- t.count + 1;
    let pb = p.max_p *. (t.avg -. p.min_th) /. (p.max_th -. p.min_th) in
    let denominator = 1.0 -. (float_of_int t.count *. pb) in
    let pa = if denominator <= 0.0 then 1.0 else pb /. denominator in
    if Sim.Rng.bernoulli t.rng pa then begin
      t.count <- 0;
      drop t packet ~cause:`Early
    end
    else if Fifo.length t.fifo >= t.capacity then begin
      t.count <- 0;
      drop t packet ~cause:`Buffer_full
    end
    else accept t packet
  end
  else begin
    t.count <- -1;
    if Fifo.length t.fifo >= t.capacity then
      drop t packet ~cause:`Buffer_full
    else accept t packet
  end

let dequeue t () =
  let packet = Fifo.take t.fifo in
  if not (Packet.is_none packet) then begin
    t.bytes <- t.bytes - packet.Packet.size_bytes;
    t.queue_stats.dequeued <- t.queue_stats.dequeued + 1;
    if Fifo.is_empty t.fifo then
      t.idle_since <- Some (Sim.Engine.now t.engine)
  end;
  packet

let create_with_probe ~engine ~capacity ~params ~rng ~bandwidth_bps
    ?(on_drop = fun _ -> ()) () =
  if capacity < 1 then invalid_arg "Red.create: capacity < 1";
  validate params;
  if bandwidth_bps <= 0.0 then invalid_arg "Red.create: bandwidth <= 0";
  let mean_service_time =
    Sim.Units.transmission_time ~size_bytes:params.mean_packet_size
      ~bandwidth_bps
  in
  let t =
    {
      engine;
      capacity;
      params;
      rng;
      fifo = Fifo.create ();
      bytes = 0;
      avg = 0.0;
      count = -1;
      idle_since = None;
      mean_service_time;
      drop_stats = { early = 0; forced = 0; buffer_full = 0 };
      queue_stats = Queue_disc.fresh_stats ();
      on_drop;
    }
  in
  let disc =
    Queue_disc.make ~name:"red"
      ~enqueue:(fun packet -> enqueue t packet)
      ~dequeue:(dequeue t)
      ~length:(fun () -> Fifo.length t.fifo)
      ~byte_length:(fun () -> t.bytes)
      ~stats:t.queue_stats ()
  in
  (disc, t.drop_stats, fun () -> t.avg)

let create ~engine ~capacity ~params ~rng ~bandwidth_bps ?on_drop () =
  let disc, drops, _probe =
    create_with_probe ~engine ~capacity ~params ~rng ~bandwidth_bps ?on_drop ()
  in
  (disc, drops)

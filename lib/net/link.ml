(* Each in-flight packet is tracked by one [delivery] record that fires
   twice: once when serialization completes (put the packet on the wire,
   start serving the next one) and once when propagation completes (hand
   the packet to [dst]). The record and its single closure are recycled
   through a per-link free list, so the steady-state per-packet cost is
   two no-handle engine events and zero link-side allocations — where it
   used to be two fresh nested closures plus two cancellable handles. *)

type delivery = {
  mutable packet : Packet.t;
  (* false: awaiting end of serialization; true: on the wire. *)
  mutable in_flight : bool;
  mutable fire : unit -> unit;
  mutable next_free : delivery;
}

(* The end of every free list, so a list link needs no option. *)
let rec no_delivery =
  { packet = Packet.none; in_flight = false; fire = ignore; next_free = no_delivery }

(* {!Sim.Engine.bits_of_time} and its inverse, restated: under -opaque a float crossing modules is boxed. *)
let[@inline always] bits_of_time (t : float) =
  Int64.to_int (Int64.sub (Int64.bits_of_float t) 0x4000_0000_0000_0000L)

let[@inline always] time_of_bits (bits : int) =
  Int64.float_of_bits (Int64.add (Int64.of_int bits) 0x4000_0000_0000_0000L)

type t = {
  engine : Sim.Engine.t;
  mutable bandwidth_bps : float;
  mutable delay : float;
  queue : Queue_disc.t;
  dst : Packet.t -> unit;
  mutable busy : bool;
  mutable up : bool;
  mutable delivered : int;
  (* Latest wire-exit time scheduled so far, encoded ([min_int] before
     the first). A delay *decrease* mid-run could otherwise let a
     packet entering the wire overtake one already propagating;
     clamping to this keeps deliveries FIFO per link. With a constant
     delay the clamp never binds, so static links schedule exactly the
     times they always did. *)
  mutable last_arrival_bits : int;
  mutable free : delivery;
}

let check_rate ~fn bandwidth_bps =
  if Float.is_nan bandwidth_bps || bandwidth_bps = infinity then
    invalid_arg (fn ^ ": bandwidth not finite");
  if bandwidth_bps <= 0.0 then invalid_arg (fn ^ ": bandwidth <= 0")

let check_delay ~fn delay =
  if Float.is_nan delay || delay = infinity then
    invalid_arg (fn ^ ": delay not finite");
  if delay < 0.0 then invalid_arg (fn ^ ": negative delay")

let create ~engine ~bandwidth_bps ~delay ~queue ~dst () =
  check_rate ~fn:"Link.create" bandwidth_bps;
  check_delay ~fn:"Link.create" delay;
  {
    engine;
    bandwidth_bps;
    delay;
    queue;
    dst;
    busy = false;
    up = true;
    delivered = 0;
    last_arrival_bits = min_int;
    free = no_delivery;
  }

let queue t = t.queue

let busy t = t.busy

let delivered t = t.delivered

(* Serve the queue head: serialize for size/bandwidth, then put the
   packet on the wire (delivery [delay] later) and start on the next
   queued packet, if any. A down link refuses to start serializing —
   administrative transitions bind at packet boundaries. *)
let rec transmit_next t =
  if not t.up then t.busy <- false
  else begin
    let packet = t.queue.Queue_disc.dequeue () in
    if Packet.is_none packet then t.busy <- false
    else begin
      t.busy <- true;
      (* [Sim.Units.transmission_time], open-coded to keep the float
         local. *)
      let tx_time =
        8.0 *. float_of_int packet.Packet.size_bytes /. t.bandwidth_bps
      in
      let d =
        let d = t.free in
        if d != no_delivery then begin
          t.free <- d.next_free;
          d.next_free <- no_delivery;
          d.packet <- packet;
          d.in_flight <- false;
          d
        end
        else begin
          let d =
            { packet; in_flight = false; fire = ignore; next_free = no_delivery }
          in
          d.fire <- (fun () -> fire_delivery t d);
          d
        end
      in
      let now = time_of_bits (Sim.Engine.now_bits t.engine) in
      Sim.Engine.schedule_unit_at_bits t.engine
        ~bits:(bits_of_time (now +. tx_time))
        d.fire
    end
  end

and fire_delivery t d =
  if not d.in_flight then begin
    d.in_flight <- true;
    (* Encoded times order like the times, so the clamp compares ints. *)
    let now = time_of_bits (Sim.Engine.now_bits t.engine) in
    let exit = bits_of_time (now +. t.delay) in
    let at = if exit > t.last_arrival_bits then exit else t.last_arrival_bits in
    t.last_arrival_bits <- at;
    Sim.Engine.schedule_unit_at_bits t.engine ~bits:at d.fire;
    transmit_next t
  end
  else begin
    let packet = d.packet in
    d.packet <- Packet.none;
    d.next_free <- t.free;
    t.free <- d;
    t.delivered <- t.delivered + 1;
    t.dst packet
  end

let send t packet =
  if t.queue.Queue_disc.enqueue packet && not t.busy then transmit_next t

let is_up t = t.up

let set_up t up =
  if t.up <> up then begin
    t.up <- up;
    if up && not t.busy then transmit_next t
  end

(* Rate and delay changes bind at packet boundaries, like [set_up]: the
   serialization time of the packet currently on the interface was
   computed when it started, so it finishes at the old rate; [t.delay]
   is read the moment a packet leaves the interface, so a delay change
   applies from the next wire entry on. Neither setter reschedules
   anything, which keeps the setters O(1) and the event stream of an
   unchanged link byte-identical. *)

let rate_bps t = t.bandwidth_bps

let delay t = t.delay

let set_rate t bandwidth_bps =
  check_rate ~fn:"Link.set_rate" bandwidth_bps;
  t.bandwidth_bps <- bandwidth_bps

let set_delay t delay =
  check_delay ~fn:"Link.set_delay" delay;
  t.delay <- delay

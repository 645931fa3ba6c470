(* Restartable one-shot timer with lazy re-arm.

   RTO timers restart on every ACK and delayed-ACK timers on every data
   packet, so the naive cancel-and-reschedule would push (and later pop
   and skip) one dead far-future queue entry per packet. Instead,
   restarting to a *later* deadline — the overwhelmingly common case,
   since the clock has advanced — only moves the logical [expiry]; the
   queue entry already outstanding fires first, notices the deadline
   moved, and re-queues itself for the remainder. Queue traffic drops
   from one entry per restart to one per expiry interval.

   [epoch] identifies the authoritative queue entry: cancel, start and
   an earlier-deadline restart bump it, so any entry still in the queue
   from a previous life of the timer wakes up, sees a stale epoch and
   does nothing. *)

(* Deadlines are stored in the engine's time encoding
   ({!Engine.bits_of_time}): the record mixes pointers and numbers, so
   [float] fields would box on every store — and [restart] runs once
   per ACK. Encoded ints compare like the times they encode, so the
   lazy-restart and expiry tests need no decoding, and the engine
   computes [now + after] itself, so no fresh float crosses a module
   boundary. *)
type t = {
  engine : Engine.t;
  callback : unit -> unit;
  mutable armed : bool;
  (* Logical deadline; meaningful only while [armed]. *)
  mutable expiry_bits : int;
  mutable epoch : int;
  (* Firing time of the authoritative queue entry; [expiry_bits] can
     only run ahead of it (lazy restart), never behind. *)
  mutable queued_bits : int;
}

let create engine ~callback =
  { engine; callback; armed = false; expiry_bits = 0; epoch = 0; queued_bits = 0 }

let is_armed t = t.armed

let expiry t =
  if t.armed then Some (Engine.time_of_bits t.expiry_bits) else None

let rec enqueue t =
  let epoch = t.epoch in
  t.queued_bits <- t.expiry_bits;
  Engine.schedule_at_bits t.engine ~bits:t.expiry_bits (fun () ->
      fired t epoch)

and fired t epoch =
  if epoch = t.epoch && t.armed then
    if t.expiry_bits <= Engine.now_bits t.engine then begin
      t.armed <- false;
      t.epoch <- t.epoch + 1;
      t.callback ()
    end
    else begin
      (* The deadline moved later while this entry was in flight:
         re-arm for the remainder. *)
      t.epoch <- t.epoch + 1;
      enqueue t
    end

let cancel t =
  if t.armed then begin
    t.armed <- false;
    t.epoch <- t.epoch + 1
  end

let start t ~after =
  if t.armed then invalid_arg "Timer.start: already armed";
  t.armed <- true;
  t.expiry_bits <- Engine.bits_after t.engine ~delay:after;
  t.epoch <- t.epoch + 1;
  enqueue t

let restart t ~after =
  if not t.armed then start t ~after
  else begin
    let expiry_bits = Engine.bits_after t.engine ~delay:after in
    if expiry_bits >= t.queued_bits then
      (* Lazy path: the outstanding entry fires no later than the new
         deadline and will re-queue itself. *)
      t.expiry_bits <- expiry_bits
    else begin
      t.expiry_bits <- expiry_bits;
      t.epoch <- t.epoch + 1;
      enqueue t
    end
  end

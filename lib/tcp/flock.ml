type t = {
  engine : Sim.Engine.t;
  params : Params.t;
  n : int;
  inject_data : flow:int -> Net.Packet.t -> unit;
  inject_ack : flow:int -> Net.Packet.t -> unit;
  mutable uid_counter : int;
  (* sender slots *)
  cwnd : float array;
  ssthresh : float array;
  una : int array;  (* lowest unacknowledged segment *)
  next_seq : int array;
  dupacks : int array;
  recover : int array;  (* fast-recovery exit seq; -1 = not recovering *)
  srtt : float array;  (* nan until the first sample *)
  rttvar : float array;
  rto : float array;
  rto_deadline : float array;  (* infinity = no timer pending *)
  timed_seq : int array;  (* Karn: one timed segment per flow; -1 = none *)
  timed_at : float array;
  retrans : int array;
  n_timeouts : int array;
  (* receiver slots *)
  rcv_next : int array;
  (* bit i set <=> segment [rcv_next + 1 + i] held out of order, in a
     native int: an [int64 array] boxes every element it stores *)
  window : int array;
}

(* The reorder bitmap holds 63 segments past the cumulative point, so
   the sender never usefully opens beyond that. *)
let window_cap = 63

let create ~engine ~params ~flows ~inject_data ~inject_ack () =
  if flows < 1 then invalid_arg "Flock.create: flows < 1";
  Params.validate params;
  {
    engine;
    params;
    n = flows;
    inject_data;
    inject_ack;
    uid_counter = 0;
    cwnd = Array.make flows params.Params.initial_cwnd;
    ssthresh = Array.make flows params.Params.initial_ssthresh;
    una = Array.make flows 0;
    next_seq = Array.make flows 0;
    dupacks = Array.make flows 0;
    recover = Array.make flows (-1);
    srtt = Array.make flows nan;
    rttvar = Array.make flows 0.0;
    rto = Array.make flows params.Params.initial_rto;
    rto_deadline = Array.make flows infinity;
    timed_seq = Array.make flows (-1);
    timed_at = Array.make flows 0.0;
    retrans = Array.make flows 0;
    n_timeouts = Array.make flows 0;
    rcv_next = Array.make flows 0;
    window = Array.make flows 0;
  }

let flows t = t.n

let fresh_uid t =
  t.uid_counter <- t.uid_counter + 1;
  t.uid_counter

let send_segment t flow seq =
  let packet =
    Net.Packet.data_bits ~uid:(fresh_uid t) ~flow ~seq
      ~size_bytes:t.params.Params.mss
      ~born_bits:(Sim.Engine.now_bits t.engine)
  in
  t.inject_data ~flow packet

let arm_timer t flow =
  if t.rto_deadline.(flow) = infinity then
    t.rto_deadline.(flow) <- Sim.Engine.now t.engine +. t.rto.(flow)

let restart_timer t flow =
  if t.una.(flow) < t.next_seq.(flow) then
    t.rto_deadline.(flow) <- Sim.Engine.now t.engine +. t.rto.(flow)
  else t.rto_deadline.(flow) <- infinity

let effective_window t flow =
  let w = int_of_float t.cwnd.(flow) in
  Stdlib.min (Stdlib.max 1 w) (Stdlib.min t.params.Params.rwnd window_cap)

(* Transmit new segments up to the window, capped per call by
   [max_burst] like the per-flow agents. *)
let send_new t flow =
  let budget =
    if t.params.Params.max_burst = 0 then max_int else t.params.Params.max_burst
  in
  let window = effective_window t flow in
  let sent = ref 0 in
  while
    !sent < budget && t.next_seq.(flow) - t.una.(flow) < window
  do
    let seq = t.next_seq.(flow) in
    if t.timed_seq.(flow) < 0 then begin
      t.timed_seq.(flow) <- seq;
      t.timed_at.(flow) <- Sim.Engine.now t.engine
    end;
    t.next_seq.(flow) <- seq + 1;
    incr sent;
    send_segment t flow seq
  done;
  if !sent > 0 then arm_timer t flow

let retransmit_una t flow =
  t.retrans.(flow) <- t.retrans.(flow) + 1;
  (* Karn: a retransmitted segment never yields an RTT sample. *)
  if t.timed_seq.(flow) >= 0 && t.timed_seq.(flow) <= t.una.(flow) then
    t.timed_seq.(flow) <- -1;
  send_segment t flow t.una.(flow)

let clamp_rto t value =
  Float.max t.params.Params.min_rto (Float.min t.params.Params.max_rto value)

let sample_rtt t flow ackno =
  if t.timed_seq.(flow) >= 0 && ackno >= t.timed_seq.(flow) then begin
    let sample = Sim.Engine.now t.engine -. t.timed_at.(flow) in
    t.timed_seq.(flow) <- -1;
    if Float.is_nan t.srtt.(flow) then begin
      t.srtt.(flow) <- sample;
      t.rttvar.(flow) <- sample /. 2.0
    end
    else begin
      let err = Float.abs (t.srtt.(flow) -. sample) in
      t.rttvar.(flow) <- (0.75 *. t.rttvar.(flow)) +. (0.25 *. err);
      t.srtt.(flow) <- (0.875 *. t.srtt.(flow)) +. (0.125 *. sample)
    end;
    t.rto.(flow) <- clamp_rto t (t.srtt.(flow) +. (4.0 *. t.rttvar.(flow)))
  end

let halve_window t flow =
  let inflight = float_of_int (t.next_seq.(flow) - t.una.(flow)) in
  Float.max 2.0 (inflight /. 2.0)

let enter_fast_recovery t flow =
  t.ssthresh.(flow) <- halve_window t flow;
  t.recover.(flow) <- t.next_seq.(flow) - 1;
  retransmit_una t flow;
  t.cwnd.(flow) <-
    t.ssthresh.(flow) +. float_of_int t.params.Params.dupack_threshold;
  restart_timer t flow

let deliver_ack t packet =
  let flow = packet.Net.Packet.flow in
  if not (Net.Packet.is_data packet) then begin
    let ackno = Net.Packet.ackno_exn packet in
    let new_una = ackno + 1 in
    if new_una > t.una.(flow) then begin
      sample_rtt t flow ackno;
      let newly = new_una - t.una.(flow) in
      if t.recover.(flow) >= 0 then
        if ackno >= t.recover.(flow) then begin
          (* full ACK: deflate to ssthresh and leave recovery *)
          t.cwnd.(flow) <- t.ssthresh.(flow);
          t.recover.(flow) <- -1;
          t.dupacks.(flow) <- 0;
          t.una.(flow) <- new_una
        end
        else begin
          (* partial ACK: the next hole was also lost — retransmit it,
             deflate by the data the partial ACK took out *)
          t.una.(flow) <- new_una;
          t.cwnd.(flow) <-
            Float.max 1.0 (t.cwnd.(flow) -. float_of_int newly +. 1.0);
          retransmit_una t flow
        end
      else begin
        t.dupacks.(flow) <- 0;
        t.una.(flow) <- new_una;
        if t.cwnd.(flow) < t.ssthresh.(flow) then
          t.cwnd.(flow) <- t.cwnd.(flow) +. float_of_int newly
        else t.cwnd.(flow) <- t.cwnd.(flow) +. (1.0 /. t.cwnd.(flow))
      end;
      restart_timer t flow;
      send_new t flow
    end
    else if t.una.(flow) < t.next_seq.(flow) then
      if t.recover.(flow) >= 0 then begin
        (* window inflation while recovering *)
        t.cwnd.(flow) <- t.cwnd.(flow) +. 1.0;
        send_new t flow
      end
      else begin
        t.dupacks.(flow) <- t.dupacks.(flow) + 1;
        if t.dupacks.(flow) = t.params.Params.dupack_threshold then
          enter_fast_recovery t flow
      end
  end

let send_ack t flow =
  let packet =
    Net.Packet.ack_bits ~uid:(fresh_uid t) ~flow ~ackno:(t.rcv_next.(flow) - 1)
      ~sack:[] ~size_bytes:t.params.Params.ack_size
      ~born_bits:(Sim.Engine.now_bits t.engine)
  in
  t.inject_ack ~flow packet

let deliver_data t packet =
  let flow = packet.Net.Packet.flow in
  if Net.Packet.is_data packet then begin
    let seq = Net.Packet.seq_exn packet in
    let expected = t.rcv_next.(flow) in
    if seq = expected then begin
      (* Advance over the held segments that now follow in order. *)
      let next = ref (expected + 1) and held = ref t.window.(flow) in
      while !held land 1 = 1 do
        incr next;
        held := !held lsr 1
      done;
      t.rcv_next.(flow) <- !next;
      t.window.(flow) <- !held lsr 1
    end
    else if seq > expected && seq - expected <= window_cap then
      t.window.(flow) <- t.window.(flow) lor (1 lsl (seq - expected - 1));
    (* below-window and far-future segments still trigger the
       (duplicate) cumulative ACK, as a real receiver would *)
    send_ack t flow
  end

let timeout t flow =
  t.n_timeouts.(flow) <- t.n_timeouts.(flow) + 1;
  t.ssthresh.(flow) <- halve_window t flow;
  t.cwnd.(flow) <- 1.0;
  t.recover.(flow) <- -1;
  t.dupacks.(flow) <- 0;
  t.rto.(flow) <- Float.min t.params.Params.max_rto (t.rto.(flow) *. 2.0);
  t.timed_seq.(flow) <- -1;
  t.rto_deadline.(flow) <- Sim.Engine.now t.engine +. t.rto.(flow);
  retransmit_una t flow

let scan t =
  let now = Sim.Engine.now t.engine in
  for flow = 0 to t.n - 1 do
    if now >= t.rto_deadline.(flow) && t.una.(flow) < t.next_seq.(flow) then
      timeout t flow
  done

let start_flow t flow = send_new t flow

(* Seconds between timeout scans. *)
let scan_interval = 0.05

let start t ?(stagger = 0.0) () =
  if stagger <= 0.0 then
    for flow = 0 to t.n - 1 do
      start_flow t flow
    done
  else begin
    (* one chained event, not one event per flow *)
    let gap = stagger /. float_of_int t.n in
    let rec start_next flow =
      if flow < t.n then begin
        start_flow t flow;
        Sim.Engine.schedule_after t.engine ~delay:gap (fun () ->
            start_next (flow + 1))
      end
    in
    start_next 0
  end;
  let rec tick () =
    scan t;
    Sim.Engine.schedule_after t.engine ~delay:scan_interval tick
  in
  Sim.Engine.schedule_after t.engine ~delay:scan_interval tick

(* -- observability --------------------------------------------------- *)

let acked_segments t flow = t.una.(flow)

let retransmits t flow = t.retrans.(flow)


let cwnd t flow = t.cwnd.(flow)

let goodput_bps t flow ~duration =
  if duration <= 0.0 then 0.0
  else
    float_of_int (t.una.(flow) * t.params.Params.mss * 8) /. duration

let total_acked_segments t = Array.fold_left ( + ) 0 t.una

let total_retransmits t = Array.fold_left ( + ) 0 t.retrans

let total_timeouts t = Array.fold_left ( + ) 0 t.n_timeouts

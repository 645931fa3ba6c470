type phase = Slow_start | Congestion_avoidance | Recovery

(* Multicast observer lists, stored in subscription order. Every
   observer sees every event; subscribing never displaces an earlier
   subscriber (the seed's single-slot hooks silently clobbered). *)
type hooks = {
  mutable send_hooks : (time:float -> seq:int -> retx:bool -> unit) list;
  mutable ack_hooks : (time:float -> ackno:int -> unit) list;
  mutable recovery_enter_hooks : (time:float -> unit) list;
  mutable recovery_exit_hooks : (time:float -> unit) list;
  mutable timeout_hooks : (time:float -> unit) list;
}

(* A single-field float record is stored flat, so writing [v] is a
   plain float store. [cwnd]/[ssthresh] live in these dedicated cells
   because the sender record below mixes ints and floats — there every
   float store allocates a fresh box, and these two fields are written
   on every ACK. (A [float ref] would not do: ['a ref] is generic and
   boxes its contents.) *)
type fcell = { mutable v : float }

type t = {
  engine : Sim.Engine.t;
  params : Params.t;
  flow : int;
  emit : Net.Packet.t -> unit;
  cwnd : fcell;
  ssthresh : fcell;
  mutable una : int;
  mutable t_seqno : int;
  mutable maxseq : int;
  mutable dupacks : int;
  mutable phase : phase;
  mutable app_limit : int option;
  rto : Rto.t;
  mutable rtx_timer : Sim.Timer.t option;
  mutable timed : (int * float) option;
  mutable uid_counter : int;
  mutable recover_mark : int;
  counters : Counters.t;
  hooks : hooks;
  mutable completed : bool;
  mutable on_complete : unit -> unit;
}

let no_op_hooks () =
  {
    send_hooks = [];
    ack_hooks = [];
    recovery_enter_hooks = [];
    recovery_exit_hooks = [];
    timeout_hooks = [];
  }

let on_send t f = t.hooks.send_hooks <- t.hooks.send_hooks @ [ f ]
let on_ack t f = t.hooks.ack_hooks <- t.hooks.ack_hooks @ [ f ]

let on_recovery_enter t f =
  t.hooks.recovery_enter_hooks <- t.hooks.recovery_enter_hooks @ [ f ]

let on_recovery_exit t f =
  t.hooks.recovery_exit_hooks <- t.hooks.recovery_exit_hooks @ [ f ]

let on_timeout t f = t.hooks.timeout_hooks <- t.hooks.timeout_hooks @ [ f ]

(* The send/ack hooks fire once per packet; the [List.iter] closure
   would capture the arguments and allocate per event, so the one- and
   two-observer cases (the ones scenarios actually build) are
   dispatched directly. *)
let fire_send t ~time ~seq ~retx =
  match t.hooks.send_hooks with
  | [] -> ()
  | [ f ] -> f ~time ~seq ~retx
  | [ f; g ] ->
    f ~time ~seq ~retx;
    g ~time ~seq ~retx
  | fs -> List.iter (fun f -> f ~time ~seq ~retx) fs

let fire_ack t ~time ~ackno =
  match t.hooks.ack_hooks with
  | [] -> ()
  | [ f ] -> f ~time ~ackno
  | [ f; g ] ->
    f ~time ~ackno;
    g ~time ~ackno
  | fs -> List.iter (fun f -> f ~time ~ackno) fs

let notify_recovery_enter t =
  let time = Sim.Engine.now t.engine in
  List.iter (fun f -> f ~time) t.hooks.recovery_enter_hooks

let notify_recovery_exit t =
  let time = Sim.Engine.now t.engine in
  List.iter (fun f -> f ~time) t.hooks.recovery_exit_hooks

let fire_timeout t ~time =
  List.iter (fun f -> f ~time) t.hooks.timeout_hooks

let create ~engine ~params ~flow ~emit ~timeout_action () =
  Params.validate params;
  let t =
    {
      engine;
      params;
      flow;
      emit;
      cwnd = { v = params.Params.initial_cwnd };
      ssthresh = { v = params.Params.initial_ssthresh };
      una = -1;
      t_seqno = 0;
      maxseq = -1;
      dupacks = 0;
      phase = Slow_start;
      app_limit = Some 0;
      rto =
        Rto.create ~min_rto:params.Params.min_rto
          ~max_rto:params.Params.max_rto
          ~initial_rto:params.Params.initial_rto
          ~estimator:params.Params.rto_estimator ();
      rtx_timer = None;
      timed = None;
      uid_counter = 0;
      recover_mark = -2;
      counters = Counters.create ();
      hooks = no_op_hooks ();
      completed = false;
      on_complete = (fun () -> ());
    }
  in
  t.rtx_timer <-
    Some (Sim.Timer.create engine ~callback:(fun () -> timeout_action t));
  t

let timer_exn t =
  match t.rtx_timer with
  | Some timer -> timer
  | None -> assert false

let[@inline always] cwnd t = t.cwnd.v

let[@inline always] set_cwnd t value = t.cwnd.v <- value

let[@inline always] ssthresh t = t.ssthresh.v

let[@inline always] set_ssthresh t value = t.ssthresh.v <- value

(* Open-coded [Float.min]: a function call would box the freshly
   loaded cwnd, and this runs once per send-window check. Neither
   operand is ever NaN. *)
let[@inline always] window t =
  let c = t.cwnd.v in
  let r = float_of_int t.params.Params.rwnd in
  if r > c then c else r

let outstanding t = t.t_seqno - t.una - 1

let app_has_data t ~seq =
  match t.app_limit with None -> true | Some n -> seq < n

let restart_rtx_timer t =
  Sim.Timer.restart (timer_exn t) ~after:(Rto.value t.rto)

let cancel_rtx_timer t = Sim.Timer.cancel (timer_exn t)

let send_segment t ~seq ~retx =
  let now = Sim.Engine.now t.engine in
  if retx then begin
    t.counters.Counters.retransmits <- t.counters.Counters.retransmits + 1;
    (* Karn's rule: a retransmitted segment yields no RTT sample. *)
    match t.timed with
    | Some (timed_seq, _) when timed_seq = seq -> t.timed <- None
    | Some _ | None -> ()
  end
  else begin
    t.counters.Counters.segments_sent <-
      t.counters.Counters.segments_sent + 1;
    if t.timed = None then t.timed <- Some (seq, now)
  end;
  t.uid_counter <- t.uid_counter + 1;
  let packet =
    Net.Packet.data ~uid:t.uid_counter ~flow:t.flow ~seq
      ~size_bytes:t.params.Params.mss ~born:now
  in
  if seq > t.maxseq then t.maxseq <- seq;
  fire_send t ~time:now ~seq ~retx;
  t.emit packet;
  if not (Sim.Timer.is_armed (timer_exn t)) then restart_rtx_timer t

(* The send loops are top-level functions rather than local recursive
   ones: the non-flambda backend heap-allocates a closure for a local
   function that captures [t], and these run on every ACK. *)
let rec send_new_data_from t ~count sent =
  if sent >= count then sent
  else begin
    let seq = t.t_seqno in
    if app_has_data t ~seq then begin
      send_segment t ~seq ~retx:(seq <= t.maxseq);
      t.t_seqno <- seq + 1;
      send_new_data_from t ~count (sent + 1)
    end
    else sent
  end

let send_new_data t ~count = send_new_data_from t ~count 0

let rec send_much_from t ~budget sent =
  if sent < budget then begin
    let seq = t.t_seqno in
    if float_of_int (outstanding t) < window t && app_has_data t ~seq then begin
      send_segment t ~seq ~retx:(seq <= t.maxseq);
      t.t_seqno <- seq + 1;
      send_much_from t ~budget (sent + 1)
    end
  end

let send_much t =
  let budget =
    if t.params.Params.max_burst = 0 then max_int else t.params.Params.max_burst
  in
  send_much_from t ~budget 0

let open_cwnd t =
  match t.phase with
  | Recovery -> ()
  | Slow_start ->
    if cwnd t < ssthresh t then begin
      (* Smooth-Start (the paper's [21]): once past ssthresh/2, grow at
         half the exponential rate so the final doubling does not blast
         a burst into the bottleneck queue. *)
      let increment =
        if t.params.Params.smooth_start && cwnd t >= ssthresh t /. 2.0 then 0.5
        else 1.0
      in
      set_cwnd t (cwnd t +. increment)
    end
    else begin
      t.phase <- Congestion_avoidance;
      set_cwnd t (cwnd t +. (1.0 /. cwnd t))
    end
  | Congestion_avoidance -> set_cwnd t (cwnd t +. (1.0 /. cwnd t))

let halve_ssthresh t =
  set_ssthresh t (Float.max (window t /. 2.0) 2.0);
  ssthresh t

let check_complete t =
  match t.app_limit with
  | Some n when (not t.completed) && t.una >= n - 1 ->
    t.completed <- true;
    cancel_rtx_timer t;
    t.on_complete ()
  | Some _ | None -> ()

let advance_una t ~ackno =
  assert (ackno > t.una);
  let now = Sim.Engine.now t.engine in
  t.counters.Counters.acks_received <- t.counters.Counters.acks_received + 1;
  (match t.timed with
  | Some (seq, sent_at) when ackno >= seq ->
    Rto.sample t.rto (now -. sent_at);
    t.timed <- None
  | Some _ | None -> ());
  t.una <- ackno;
  (* After a go-back-N rollback, a large cumulative ACK can overtake the
     send point; new transmission resumes from the ACK. *)
  if t.t_seqno < t.una + 1 then t.t_seqno <- t.una + 1;
  if outstanding t > 0 then restart_rtx_timer t else cancel_rtx_timer t;
  fire_ack t ~time:now ~ackno;
  check_complete t

let may_fast_retransmit t = t.una > t.recover_mark

let limited_transmit t =
  if
    t.params.Params.limited_transmit
    && t.dupacks >= 1 && t.dupacks <= 2
    && app_has_data t ~seq:t.t_seqno
    && float_of_int (outstanding t) < window t +. 2.0
  then begin
    (* After a go-back-N rollback [t_seqno] can sit below [maxseq];
       labelling such a send as fresh would skew counters and start an
       RTT timing Karn's rule forbids. *)
    send_segment t ~seq:t.t_seqno ~retx:(t.t_seqno <= t.maxseq);
    t.t_seqno <- t.t_seqno + 1
  end

let note_dupack t =
  t.counters.Counters.dupacks_received <-
    t.counters.Counters.dupacks_received + 1;
  let now = Sim.Engine.now t.engine in
  fire_ack t ~time:now ~ackno:t.una

let open_ack t ~ackno =
  if ackno > t.una then begin
    t.dupacks <- 0;
    advance_una t ~ackno;
    open_cwnd t;
    send_much t;
    false
  end
  else if ackno = t.una && outstanding t > 0 then begin
    note_dupack t;
    t.dupacks <- t.dupacks + 1;
    if t.dupacks = t.params.Params.dupack_threshold && may_fast_retransmit t
    then true
    else begin
      limited_transmit t;
      false
    end
  end
  else false

let enter_recovery t =
  t.counters.Counters.fast_retransmits <-
    t.counters.Counters.fast_retransmits + 1;
  t.recover_mark <- t.maxseq;
  notify_recovery_enter t;
  t.phase <- Recovery;
  t.timed <- None

let timeout_common t =
  let now = Sim.Engine.now t.engine in
  t.counters.Counters.timeouts <- t.counters.Counters.timeouts + 1;
  fire_timeout t ~time:now;
  Rto.backoff t.rto;
  set_ssthresh t (Float.max (window t /. 2.0) 2.0);
  set_cwnd t 1.0;
  t.phase <- Slow_start;
  t.dupacks <- 0;
  t.timed <- None;
  t.recover_mark <- t.maxseq;
  (* Go-back-N: roll the send point back and retransmit the first
     outstanding segment; slow start rebuilds the rest. *)
  let first = t.una + 1 in
  t.t_seqno <- first;
  if first <= t.maxseq || app_has_data t ~seq:first then begin
    send_segment t ~seq:first ~retx:(first <= t.maxseq);
    t.t_seqno <- first + 1;
    restart_rtx_timer t
  end

let set_app_limit t limit = t.app_limit <- limit

let start t = send_much t

open Sender_common

type mechanisms = {
  fine_retransmit : bool;
  rtt_based_avoidance : bool;
  cautious_slow_start : bool;
}

let full =
  { fine_retransmit = true; rtt_based_avoidance = true; cautious_slow_start = true }

(* The classic backlog thresholds, in segments. *)
let alpha = 1.0

let beta = 3.0

let gamma = 1.0

type state = {
  mechanisms : mechanisms;
  (* Last transmission time of each outstanding segment, for the
     fine-grained timeout check. *)
  send_times : (int, float) Hashtbl.t;
  mutable base_rtt : float;  (* smallest RTT seen = propagation estimate *)
  mutable last_rtt : float;  (* most recent per-segment measurement *)
  mutable epoch_end : int;  (* una passing this marks one RTT *)
  mutable ss_grow : bool;  (* slow start grows only every other RTT *)
  mutable last_cut : float;  (* window reduced at most once per RTT *)
}

let fresh_state ~mechanisms =
  {
    mechanisms;
    send_times = Hashtbl.create 64;
    base_rtt = infinity;
    last_rtt = 0.0;
    epoch_end = 0;
    ss_grow = true;
    last_cut = neg_infinity;
  }

(* Estimated backlog at the bottleneck, in segments:
   (expected - actual) * baseRTT = cwnd * (rtt - baseRTT) / rtt. *)
let backlog state base =
  if state.last_rtt <= 0.0 || state.base_rtt = infinity then 0.0
  else cwnd base *. (state.last_rtt -. state.base_rtt) /. state.last_rtt

(* The fine-grained timeout comes from the sender's own RTO estimator
   ([Rto.fine_timeout]): no backoff and no [min_rto] floor — acting
   before the conservative coarse minimum is the whole point — but the
   [max_rto] ceiling still applies. *)
let fine_timeout base = Rto.fine_timeout base.rto

(* Vegas reduces the window by a quarter on a fine-grained loss signal,
   but at most once per RTT of losses. *)
let cut_window state base =
  let now = Sim.Engine.now base.engine in
  (* Before the first per-segment measurement, rate-limit cuts by the
     estimator's smoothed RTT — or, with no sample at all yet, by the
     configured initial RTO (a deliberately conservative RTT stand-in,
     like the pre-sample timeout itself). *)
  let rtt =
    if state.last_rtt > 0.0 then state.last_rtt
    else
      match Rto.srtt base.rto with
      | Some srtt -> srtt
      | None -> base.params.Params.initial_rto
  in
  if now -. state.last_cut > rtt then begin
    state.last_cut <- now;
    set_cwnd base (Float.max (cwnd base *. 0.75) 2.0);
    set_ssthresh base (Float.max (cwnd base) 2.0);
    if base.phase = Slow_start then base.phase <- Congestion_avoidance
  end

(* Retransmit the oldest outstanding segment if its last transmission
   has outlived the fine-grained timeout. *)
let check_expired state base =
  let oldest = base.una + 1 in
  if oldest <= base.maxseq then begin
    match Hashtbl.find_opt state.send_times oldest with
    | Some sent_at
      when Sim.Engine.now base.engine -. sent_at > fine_timeout base ->
      send_segment base ~seq:oldest ~retx:true;
      restart_rtx_timer base;
      cut_window state base;
      true
    | Some _ | None -> false
  end
  else false

let measure_rtt state base ~ackno =
  match Hashtbl.find_opt state.send_times ackno with
  | Some sent_at ->
    let rtt = Sim.Engine.now base.engine -. sent_at in
    if rtt > 0.0 then begin
      state.last_rtt <- rtt;
      if rtt < state.base_rtt then state.base_rtt <- rtt
    end
  | None -> ()

let forget_acked state ~ackno =
  Hashtbl.filter_map_inplace
    (fun seq sent_at -> if seq <= ackno then None else Some sent_at)
    state.send_times

(* Per-RTT window adjustment (congestion avoidance) and the slow-start
   grow/hold toggle. *)
let epoch_actions state base =
  let diff = backlog state base in
  (match base.phase with
  | Congestion_avoidance when state.mechanisms.rtt_based_avoidance ->
    if diff < alpha then set_cwnd base (cwnd base +. 1.0)
    else if diff > beta then
      set_cwnd base (Float.max (cwnd base -. 1.0) 2.0)
  | Slow_start when state.mechanisms.cautious_slow_start ->
    if diff > gamma then begin
      (* The pipe is filling: leave slow start now. *)
      set_ssthresh base (Float.max (cwnd base) 2.0);
      base.phase <- Congestion_avoidance
    end
    else state.ss_grow <- not state.ss_grow
  | Slow_start | Congestion_avoidance | Recovery -> ());
  state.epoch_end <- base.t_seqno

let per_ack_growth state base =
  match base.phase with
  | Slow_start ->
    if (not state.mechanisms.cautious_slow_start) || state.ss_grow then
      open_cwnd base
  | Congestion_avoidance ->
    if not state.mechanisms.rtt_based_avoidance then open_cwnd base
  | Recovery -> ()

let recv_ack state base ~ackno =
  if ackno > base.una then begin
    measure_rtt state base ~ackno;
    forget_acked state ~ackno;
    base.dupacks <- 0;
    let epoch_over = ackno >= state.epoch_end in
    advance_una base ~ackno;
    per_ack_growth state base;
    if epoch_over then epoch_actions state base;
    (* Vegas also checks the (now) oldest segment on the first ACKs
       after a retransmission, catching back-to-back losses without
       further duplicate ACKs. *)
    if state.mechanisms.fine_retransmit then
      ignore (check_expired state base : bool);
    send_much base
  end
  else if ackno = base.una && outstanding base > 0 then begin
    note_dupack base;
    base.dupacks <- base.dupacks + 1;
    let retransmitted =
      state.mechanisms.fine_retransmit && check_expired state base
    in
    if
      (not retransmitted)
      && base.dupacks = base.params.Params.dupack_threshold
      && may_fast_retransmit base
    then begin
      (* Classic three-dupack fallback. *)
      base.counters.Counters.fast_retransmits <-
        base.counters.Counters.fast_retransmits + 1;
      base.recover_mark <- base.maxseq;
      base.timed <- None;
      send_segment base ~seq:(base.una + 1) ~retx:true;
      restart_rtx_timer base;
      cut_window state base
    end
    else if not retransmitted then limited_transmit base
  end

let timeout state base =
  Hashtbl.reset state.send_times;
  state.last_cut <- neg_infinity;
  timeout_common base

let create_with ~engine ~params ~flow ~emit ~mechanisms () =
  let state = fresh_state ~mechanisms in
  let emit_recording packet =
    if Net.Packet.is_data packet then
      Hashtbl.replace state.send_times (Net.Packet.seq_exn packet)
        (Sim.Engine.now engine);
    emit packet
  in
  let base =
    create ~engine ~params ~flow ~emit:emit_recording
      ~timeout_action:(timeout state) ()
  in
  Agent.create ~name:"vegas" ~wants_sack:false base (fun packet ->
      recv_ack state base ~ackno:(Net.Packet.ackno_exn packet))

let create ~engine ~params ~flow ~emit () =
  create_with ~engine ~params ~flow ~emit ~mechanisms:full ()

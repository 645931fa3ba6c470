open Sender_common

type state = {
  scoreboard : Seqset.t;
  retransmitted : Seqset.t;  (* holes resent this recovery, still unacked *)
  mutable recover : int;
}

(* The forward-most data the receiver holds; [una] when nothing is
   SACKed. *)
let fack base state =
  match Seqset.max_elt state.scoreboard with
  | Some highest -> max highest base.una
  | None -> base.una

(* awnd = data sent beyond fack (still plausibly in flight) plus the
   retransmissions we have re-injected. *)
let awnd base state =
  max 0 (base.maxseq - fack base state) + Seqset.cardinal state.retransmitted

let next_hole base state =
  let rec search candidate =
    if candidate > fack base state then None
    else if
      Seqset.mem state.scoreboard candidate
      || Seqset.mem state.retransmitted candidate
    then search (candidate + 1)
    else Some candidate
  in
  search (base.una + 1)

let send_while_awnd_allows base state =
  let budget =
    if base.params.Params.max_burst = 0 then max_int
    else base.params.Params.max_burst
  in
  let rec loop sent =
    if sent >= budget || float_of_int (awnd base state) >= cwnd base then ()
    else
      match next_hole base state with
      | Some seq ->
        ignore (Seqset.add state.retransmitted seq : bool);
        send_segment base ~seq ~retx:true;
        loop (sent + 1)
      | None ->
        if app_has_data base ~seq:base.t_seqno then begin
          send_segment base ~seq:base.t_seqno ~retx:false;
          base.t_seqno <- base.t_seqno + 1;
          loop (sent + 1)
        end
  in
  loop 0

let enter base state =
  enter_recovery base;
  state.recover <- base.maxseq;
  Seqset.clear state.retransmitted;
  set_cwnd base (halve_ssthresh base);
  (* The first hole goes out unconditionally; awnd gates the rest. *)
  (match next_hole base state with
  | Some seq ->
    ignore (Seqset.add state.retransmitted seq : bool);
    send_segment base ~seq ~retx:true
  | None -> ());
  send_while_awnd_allows base state;
  restart_rtx_timer base

let exit_recovery base state =
  set_cwnd base (ssthresh base);
  base.phase <- Congestion_avoidance;
  base.dupacks <- 0;
  Seqset.clear state.retransmitted;
  notify_recovery_exit base

(* FACK's trigger: enough data is known to have left the network,
   whether or not three literal duplicate ACKs arrived. *)
let loss_evident base state =
  fack base state - base.una - 1 > base.params.Params.dupack_threshold
  || base.dupacks = base.params.Params.dupack_threshold

let recv_ack base state ~ackno ~sack =
  Seqset.add_blocks state.scoreboard sack;
  if ackno > base.una then begin
    Seqset.remove_below state.scoreboard (ackno + 1);
    Seqset.remove_below state.retransmitted (ackno + 1);
    if base.phase = Recovery then begin
      if ackno >= state.recover then begin
        exit_recovery base state;
        advance_una base ~ackno;
        send_much base
      end
      else begin
        advance_una base ~ackno;
        restart_rtx_timer base;
        send_while_awnd_allows base state
      end
    end
    else begin
      base.dupacks <- 0;
      advance_una base ~ackno;
      open_cwnd base;
      (* A cumulative advance can still reveal a hole below fack. *)
      if loss_evident base state && may_fast_retransmit base then
        enter base state
      else send_much base
    end
  end
  else if ackno = base.una && outstanding base > 0 then begin
    note_dupack base;
    base.dupacks <- base.dupacks + 1;
    if base.phase = Recovery then send_while_awnd_allows base state
    else if loss_evident base state && may_fast_retransmit base then
      enter base state
    else limited_transmit base
  end

let timeout state base =
  Seqset.clear state.retransmitted;
  timeout_common base

let create ~engine ~params ~flow ~emit () =
  let state =
    { scoreboard = Seqset.create (); retransmitted = Seqset.create (); recover = -1 }
  in
  let base =
    create ~engine ~params ~flow ~emit ~timeout_action:(timeout state) ()
  in
  Agent.create ~name:"fack" ~wants_sack:true base (fun packet ->
      recv_ack base state
        ~ackno:(Net.Packet.ackno_exn packet)
        ~sack:(Net.Packet.sack packet))

open Sender_common

type state = {
  scoreboard : Seqset.t;  (* segments the receiver reported holding *)
  retransmitted : Seqset.t;  (* holes already resent this recovery *)
  mutable recover : int;
  mutable pipe : int;
}

(* The oldest segment above [una] that the receiver does not hold and
   that we have not already retransmitted this recovery, provided the
   scoreboard proves data above it arrived. *)
let next_hole base state =
  let rec search candidate =
    match Seqset.max_elt state.scoreboard with
    | None -> None
    | Some highest_sacked ->
      if candidate > highest_sacked then None
      else if
        Seqset.mem state.scoreboard candidate
        || Seqset.mem state.retransmitted candidate
      then search (candidate + 1)
      else Some candidate
  in
  search (base.una + 1)

(* In recovery, transmit while the pipe has room: holes first, then new
   data; every transmission adds one packet to the pipe. *)
let send_while_pipe_allows base state =
  let budget =
    if base.params.Params.max_burst = 0 then max_int
    else base.params.Params.max_burst
  in
  let rec loop sent =
    if sent >= budget || float_of_int state.pipe >= cwnd base then ()
    else
      match next_hole base state with
      | Some seq ->
        ignore (Seqset.add state.retransmitted seq : bool);
        send_segment base ~seq ~retx:true;
        state.pipe <- state.pipe + 1;
        loop (sent + 1)
      | None ->
        if app_has_data base ~seq:base.t_seqno then begin
          send_segment base ~seq:base.t_seqno ~retx:false;
          base.t_seqno <- base.t_seqno + 1;
          state.pipe <- state.pipe + 1;
          loop (sent + 1)
        end
  in
  loop 0

let enter base state =
  enter_recovery base;
  state.recover <- base.maxseq;
  Seqset.clear state.retransmitted;
  (* ns-2 sack1 (the implementation the paper compares against) seeds
     the pipe from the pre-halving window minus the duplicate ACKs'
     evidence of departures; transmission resumes once enough further
     dup ACKs drain it below the halved cwnd. *)
  state.pipe <-
    max 0
      (int_of_float (window base) - base.params.Params.dupack_threshold);
  set_cwnd base (halve_ssthresh base);
  send_segment base ~seq:(base.una + 1) ~retx:true;
  ignore (Seqset.add state.retransmitted (base.una + 1) : bool);
  state.pipe <- state.pipe + 1;
  restart_rtx_timer base

let exit_recovery base state =
  set_cwnd base (ssthresh base);
  base.phase <- Congestion_avoidance;
  base.dupacks <- 0;
  state.pipe <- 0;
  Seqset.clear state.retransmitted;
  notify_recovery_exit base

let recv_ack base state ~ackno ~sack =
  Seqset.add_blocks state.scoreboard sack;
  if ackno > base.una then begin
    Seqset.remove_below state.scoreboard (ackno + 1);
    Seqset.remove_below state.retransmitted (ackno + 1)
  end;
  if base.phase <> Recovery then begin
    if open_ack base ~ackno then enter base state
  end
  else if ackno > base.una then begin
    if ackno >= state.recover then begin
      (* Full ACK: deflate to ssthresh; growth resumes next ACK. *)
      exit_recovery base state;
      advance_una base ~ackno;
      send_much base
    end
    else begin
      advance_una base ~ackno;
      (* Partial ACK: the original and its retransmission left. *)
      state.pipe <- max 0 (state.pipe - 2);
      restart_rtx_timer base;
      send_while_pipe_allows base state
    end
  end
  else if ackno = base.una && outstanding base > 0 then begin
    note_dupack base;
    base.dupacks <- base.dupacks + 1;
    state.pipe <- max 0 (state.pipe - 1);
    send_while_pipe_allows base state
  end

let timeout state base =
  (* Retransmission timing restarts from scratch: the scoreboard keeps
     receiver knowledge, but per-recovery bookkeeping resets. *)
  state.pipe <- 0;
  Seqset.clear state.retransmitted;
  timeout_common base

let create ~engine ~params ~flow ~emit () =
  let state =
    {
      scoreboard = Seqset.create ();
      retransmitted = Seqset.create ();
      recover = -1;
      pipe = 0;
    }
  in
  let base =
    create ~engine ~params ~flow ~emit ~timeout_action:(timeout state) ()
  in
  Agent.create ~name:"sack" ~wants_sack:true base (fun packet ->
      recv_ack base state
        ~ackno:(Net.Packet.ackno_exn packet)
        ~sack:(Net.Packet.sack packet))

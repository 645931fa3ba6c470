open Tcp.Sender_common

type stage = Retreat | Probe

type probe_view = {
  stage : stage;
  exit_point : int;
  actnum : int;
  ndup : int;
  further_losses : int;
}

type recovery = {
  mutable r_stage : stage;
  mutable exit_point : int;
  mutable actnum : int;
  mutable ndup : int;
  mutable retreat_sent : int;  (* new segments sent during retreat *)
  mutable further_losses : int;
}

type state = {
  mutable recovery : recovery option;
  mutable completed_recoveries : int;
}

type handle = state

type ablation = {
  retreat_per_dupack : bool;
  multiplicative_backoff : bool;
  exit_to_ssthresh : bool;
}

let paper_design =
  {
    retreat_per_dupack = false;
    multiplicative_backoff = false;
    exit_to_ssthresh = false;
  }

let inspect state =
  Option.map
    (fun r ->
      {
        stage = r.r_stage;
        exit_point = r.exit_point;
        actnum = r.actnum;
        ndup = r.ndup;
        further_losses = r.further_losses;
      })
    state.recovery

let recoveries state = state.completed_recoveries

(* Fast retransmit: freeze cwnd, halve ssthresh, and start the retreat
   sub-phase. actnum stays 0 until the first non-duplicate ACK. *)
let enter base state =
  enter_recovery base;
  state.recovery <-
    Some
      {
        r_stage = Retreat;
        exit_point = base.maxseq;
        actnum = 0;
        ndup = 0;
        retreat_sent = 0;
        further_losses = 0;
      };
  ignore (halve_ssthresh base : float);
  send_segment base ~seq:(base.una + 1) ~retx:true;
  restart_rtx_timer base

(* Leaving recovery: cwnd takes back control, set to the accurate
   in-flight count so the terminating ACK clocks out just one segment
   (no big-ACK burst). *)
let exit_recovery ~ablation base state r ~ackno =
  advance_una base ~ackno;
  set_cwnd base
    (if ablation.exit_to_ssthresh then ssthresh base
     else float_of_int (max r.actnum 1));
  base.dupacks <- 0;
  base.phase <-
    (if cwnd base < ssthresh base then Slow_start else Congestion_avoidance);
  state.recovery <- None;
  state.completed_recoveries <- state.completed_recoveries + 1;
  notify_recovery_exit base;
  send_much base

(* A partial ACK: the RTT boundary of the probe sub-phase. Detect
   further losses by ndup-vs-actnum, adjust actnum and the exit point,
   and retransmit the hole the ACK exposes. *)
let probe_rtt_boundary ~ablation base r ~ackno =
  let further = r.ndup < r.actnum in
  if further then begin
    r.further_losses <- r.further_losses + (r.actnum - r.ndup);
    r.actnum <-
      (if ablation.multiplicative_backoff then max (r.actnum / 2) 0
       else r.ndup);
    (* Extend the exit to cover everything sent up to the detection. *)
    r.exit_point <- base.maxseq
  end
  else begin
    (* Loss-free RTT: grow linearly, like congestion avoidance. *)
    r.actnum <- r.actnum + 1;
    ignore (send_new_data base ~count:1 : int)
  end;
  r.ndup <- 0;
  advance_una base ~ackno;
  send_segment base ~seq:(base.una + 1) ~retx:true;
  restart_rtx_timer base

let recv_ack ~ablation base state ~ackno =
  match state.recovery with
  | None -> if open_ack base ~ackno then enter base state
  | Some r ->
    if ackno = base.una then begin
      note_dupack base;
      r.ndup <- r.ndup + 1;
      match r.r_stage with
      | Retreat ->
        let clock = if ablation.retreat_per_dupack then 1 else 2 in
        if r.ndup mod clock = 0 then
          r.retreat_sent <- r.retreat_sent + send_new_data base ~count:1
      | Probe -> ignore (send_new_data base ~count:1 : int)
    end
    else if ackno > base.una then begin
      match r.r_stage with
      | Retreat ->
        (* First non-duplicate ACK: retreat is over; actnum assumes
           congestion control, seeded with the retreat's send count. *)
        r.actnum <- r.retreat_sent;
        r.r_stage <- Probe;
        r.ndup <- 0;
        if ackno >= r.exit_point then
          exit_recovery ~ablation base state r ~ackno
        else begin
          advance_una base ~ackno;
          send_segment base ~seq:(base.una + 1) ~retx:true;
          restart_rtx_timer base
        end
      | Probe ->
        if ackno >= r.exit_point then
          exit_recovery ~ablation base state r ~ackno
        else probe_rtt_boundary ~ablation base r ~ackno
    end

let timeout state base =
  (* Retransmission loss: fall back to the standard coarse timeout. *)
  state.recovery <- None;
  timeout_common base

let create ~engine ~params ~flow ~emit ~ablation () =
  let state = { recovery = None; completed_recoveries = 0 } in
  let base =
    create ~engine ~params ~flow ~emit ~timeout_action:(timeout state) ()
  in
  ( Tcp.Agent.create ~name:"rr" ~wants_sack:false base (fun packet ->
        recv_ack ~ablation base state ~ackno:(Net.Packet.ackno_exn packet)),
    state )

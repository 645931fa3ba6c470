open Sender_common

type rule = Reno | Newreno | Rrr | Relentless

type state = {
  rule : rule;
  level : float;  (* the relative cut's congestion level *)
  mutable recover : int;  (* recovery ends once the ACK reaches it *)
  target : fcell;
      (* the un-inflated window recovery exits to. Dupack inflation is
         kept out of it, so Relentless's per-hole decrease stays exact. *)
}

let name = function
  | Reno -> "reno"
  | Newreno -> "newreno"
  | Rrr -> "rrr"
  | Relentless -> "relentless"

(* The window after a relative rate reduction of [w]: [(1 - level) * w],
   which at level 0.5 is the standard half-cut. *)
let reduce state w = Float.max ((1.0 -. state.level) *. w) 2.0

(* Fast retransmit: cut the window, inflate it by the duplicate ACKs
   already seen and resend the first hole. Reno's recovery point is that
   hole, so its next new ACK, full or partial, ends recovery. *)
let enter state base =
  enter_recovery base;
  state.recover <-
    (match state.rule with
    | Reno -> base.una + 1
    | Newreno | Rrr | Relentless -> base.maxseq);
  state.target.v <-
    (match state.rule with
    | Relentless -> Float.max 1.0 (window base -. 1.0)
    | Reno | Newreno | Rrr -> reduce state (window base));
  set_ssthresh base (Float.max 2.0 state.target.v);
  set_cwnd base
    (state.target.v +. float_of_int base.params.Params.dupack_threshold);
  send_segment base ~seq:(base.una + 1) ~retx:true;
  restart_rtx_timer base

let recv_ack state base ~ackno =
  if base.phase <> Recovery then begin
    if open_ack base ~ackno then enter state base
  end
  else if ackno > base.una then begin
    if ackno >= state.recover then begin
      (* Full ACK: the window deflates to the target and growth resumes
         with the next ACK. *)
      set_cwnd base state.target.v;
      base.phase <- Congestion_avoidance;
      base.dupacks <- 0;
      notify_recovery_exit base;
      advance_una base ~ackno;
      send_much base
    end
    else begin
      (* Partial ACK: deflate by the amount acknowledged, re-inflate by
         one, retransmit the next hole and stay in recovery. For
         Relentless the hole is one more loss, one more segment off the
         target. *)
      let acked = ackno - base.una in
      advance_una base ~ackno;
      (match state.rule with
      | Relentless ->
        state.target.v <- Float.max 1.0 (state.target.v -. 1.0);
        set_ssthresh base (Float.max 2.0 state.target.v)
      | Reno | Newreno | Rrr -> ());
      set_cwnd base (Float.max 1.0 (cwnd base -. float_of_int acked +. 1.0));
      send_segment base ~seq:(base.una + 1) ~retx:true;
      restart_rtx_timer base;
      send_much base
    end
  end
  else if ackno = base.una && outstanding base > 0 then begin
    (* Window inflation: each duplicate ACK signals a departure. *)
    note_dupack base;
    base.dupacks <- base.dupacks + 1;
    set_cwnd base (cwnd base +. 1.0);
    send_much base
  end

(* RRR's timeout takes the same relative cut of the window it found.
   The other rules keep [timeout_common]'s half-cut, which is that cut
   at level 0.5. *)
let timeout state base =
  match state.rule with
  | Rrr ->
    let w = window base in
    timeout_common base;
    set_ssthresh base (reduce state w)
  | Reno | Newreno | Relentless -> timeout_common base

let create rule ~engine ~params ~flow ~emit () =
  let level =
    match rule with
    | Rrr -> params.Params.rrr_level
    | Reno | Newreno | Relentless -> 0.5
  in
  let state = { rule; level; recover = -1; target = { v = 1.0 } } in
  let base =
    create ~engine ~params ~flow ~emit ~timeout_action:(timeout state) ()
  in
  Agent.create ~name:(name rule) ~wants_sack:false base (fun packet ->
      recv_ack state base ~ackno:(Net.Packet.ackno_exn packet))

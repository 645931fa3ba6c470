open Sender_common

let fast_retransmit base =
  base.counters.Counters.fast_retransmits <-
    base.counters.Counters.fast_retransmits + 1;
  base.recover_mark <- base.maxseq;
  ignore (halve_ssthresh base : float);
  set_cwnd base 1.0;
  base.phase <- Slow_start;
  base.timed <- None;
  (* Tahoe goes back to the loss point and slow-starts from there. *)
  let first = base.una + 1 in
  base.t_seqno <- first;
  send_segment base ~seq:first ~retx:true;
  base.t_seqno <- first + 1;
  restart_rtx_timer base

let create ~engine ~params ~flow ~emit () =
  let base =
    create ~engine ~params ~flow ~emit ~timeout_action:timeout_common ()
  in
  Agent.create ~name:"tahoe" ~wants_sack:false base (fun packet ->
      if open_ack base ~ackno:(Net.Packet.ackno_exn packet) then
        fast_retransmit base)

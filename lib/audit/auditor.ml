type violation = {
  time : float;
  subject : string;
  rule : string;
  detail : string;
}

type sender_state = {
  agent : Tcp.Agent.t;
  rr : Core.Rr.handle option;
  label : string;
  (* Shadow of the highest segment ever transmitted, maintained
     independently from the sender's own [maxseq] so a bookkeeping bug
     there cannot hide itself. *)
  mutable shadow_maxseq : int;
  mutable last_cumulative : int;  (* highest ackno seen, -1 initially *)
  (* RR episode tracking: the last exit point observed during the
     current recovery episode, [None] between episodes. *)
  mutable episode_exit_point : int option;
}

type queue_state = {
  qname : string;
  disc : Net.Queue_disc.t;
  mutable inside : int;  (* enqueued - dequeued since attach *)
  mutable enq : int;
  mutable deq : int;
  mutable drop : int;
  start : Net.Queue_disc.stats;  (* counter values at attach time *)
  per_flow : (int, int Queue.t) Hashtbl.t;  (* flow -> uids in FIFO order *)
}

(* At most this many violations are stored verbatim. *)
let max_recorded = 100

type t = {
  engine : Sim.Engine.t;
  (* 1-in-[sample] events get the invariant batteries; cheap shadow
     state (maxseq, cumulative point, occupancy counters) is updated on
     every event regardless, so sampled checks always evaluate against
     exact state. [countdown] ticks down per observed event. *)
  sample : int;
  mutable countdown : int;
  mutable recorded : violation list;  (* newest first, capped *)
  mutable total : int;
  mutable checks : int;
  mutable queues : queue_state list;
  mutable finalized : bool;
}

let create ?(sample = 1) ~engine () =
  if sample < 1 then invalid_arg "Auditor.create: sample < 1";
  {
    engine;
    sample;
    countdown = 1;
    recorded = [];
    total = 0;
    checks = 0;
    queues = [];
    finalized = false;
  }

let sample t = t.sample

let violation_count t = t.total

let checks_run t = t.checks

let ok t = t.total = 0

let violations t = List.rev t.recorded

(* Every event calls [due] exactly once; the check batteries run only
   on the events where it fires. With the default [sample = 1] it fires
   on every event. *)
let[@inline] due t =
  let left = t.countdown - 1 in
  if left = 0 then begin
    t.countdown <- t.sample;
    true
  end
  else begin
    t.countdown <- left;
    false
  end

let report_violation t ~subject ~rule ~detail =
  t.total <- t.total + 1;
  if t.total <= max_recorded then
    t.recorded <-
      { time = Sim.Engine.now t.engine; subject; rule; detail } :: t.recorded

(* Check idiom: [tally] counts the evaluation, and the caller renders
   the detail string only on the (cold) failing path. Keeping the
   detail out of a closure matters: a [~detail:(fun () -> ...)] at the
   call site captures its environment and heap-allocates on every
   event, which made full observer fan-out the dominant per-event cost
   of audited runs. *)
let[@inline] tally t = t.checks <- t.checks + 1

(* -- TCP sender invariants -- *)

let check_sender_core t (s : sender_state) =
  let b = s.agent.Tcp.Agent.base in
  let open Tcp.Sender_common in
  let subject = s.label in
  tally t;
  if not (b.una >= -1 && b.t_seqno >= b.una + 1 && b.t_seqno <= b.maxseq + 1)
  then
    report_violation t ~subject ~rule:"sender-ordering"
      ~detail:
        (Printf.sprintf "una=%d t_seqno=%d maxseq=%d" b.una b.t_seqno b.maxseq);
  tally t;
  if not (outstanding b >= 0) then
    report_violation t ~subject ~rule:"sender-outstanding"
      ~detail:(Printf.sprintf "outstanding=%d" (outstanding b));
  tally t;
  if not (cwnd b >= 1.0 && ssthresh b >= 2.0) then
    report_violation t ~subject ~rule:"sender-window"
      ~detail:
        (Printf.sprintf "cwnd=%.3f ssthresh=%.3f" (cwnd b) (ssthresh b));
  tally t;
  if not (b.dupacks >= 0) then
    report_violation t ~subject ~rule:"sender-dupacks"
      ~detail:(Printf.sprintf "dupacks=%d" b.dupacks);
  (* Dupack-counter consistency, classic-threshold variants only: once
     the counter has run past the threshold without recovery starting,
     the only legitimate reason is the ns-2 "bugfix" suppression
     ([una <= recover_mark]). Vegas retransmits on its own fine-grained
     timer and may exceed the threshold legitimately. *)
  if s.agent.Tcp.Agent.name <> "vegas" then begin
    tally t;
    if
      not
        (b.phase = Recovery
        || b.dupacks <= b.params.Tcp.Params.dupack_threshold
        || not (may_fast_retransmit b))
    then
      report_violation t ~subject ~rule:"sender-dupacks"
        ~detail:
          (Printf.sprintf
             "dupacks=%d passed threshold outside recovery yet fast \
              retransmit is not suppressed (una=%d recover_mark=%d)"
             b.dupacks b.una b.recover_mark)
  end

(* -- RR recovery invariants -- *)

let check_rr t (s : sender_state) =
  match s.rr with
  | None -> ()
  | Some handle ->
    let subject = s.label in
    (match Core.Rr.inspect handle with
    | None -> ()
    | Some view ->
      let b = s.agent.Tcp.Agent.base in
      tally t;
      if not (view.actnum >= 0 && view.ndup >= 0 && view.further_losses >= 0)
      then
        report_violation t ~subject ~rule:"rr-counters"
          ~detail:
            (Printf.sprintf "actnum=%d ndup=%d further_losses=%d" view.actnum
               view.ndup view.further_losses);
      tally t;
      if not (view.exit_point <= b.Tcp.Sender_common.maxseq) then
        report_violation t ~subject ~rule:"rr-exit-point"
          ~detail:
            (Printf.sprintf "exit_point=%d maxseq=%d" view.exit_point
               b.Tcp.Sender_common.maxseq);
      (match s.episode_exit_point with
      | Some previous ->
        tally t;
        if not (view.exit_point >= previous) then
          report_violation t ~subject ~rule:"rr-exit-point"
            ~detail:
              (Printf.sprintf "exit point moved backwards: %d -> %d" previous
                 view.exit_point)
      | None -> ());
      s.episode_exit_point <- Some view.exit_point)

let rr_probe_boundary_check t (s : sender_state) ~ackno =
  (* A cumulative advance inside recovery that does not reach the exit
     point is a probe-RTT boundary: RR must have reset [ndup] before
     repairing the hole. *)
  match s.rr with
  | None -> ()
  | Some handle -> (
    match Core.Rr.inspect handle with
    | Some view
      when view.stage = Core.Rr.Probe && ackno < view.exit_point
           && ackno > s.last_cumulative ->
      tally t;
      if not (view.ndup = 0) then
        report_violation t ~subject:s.label ~rule:"rr-ndup-reset"
          ~detail:
            (Printf.sprintf "ndup=%d not reset at probe RTT boundary (ackno=%d)"
               view.ndup ackno)
    | Some _ | None -> ())

let attach_sender t ?rr ~label agent =
  let s =
    {
      agent;
      rr;
      label;
      shadow_maxseq = agent.Tcp.Agent.base.Tcp.Sender_common.maxseq;
      last_cumulative = agent.Tcp.Agent.base.Tcp.Sender_common.una;
      episode_exit_point = None;
    }
  in
  let base = agent.Tcp.Agent.base in
  Tcp.Sender_common.on_send base (fun ~time:_ ~seq ~retx ->
      (if due t then begin
         let b = base in
         tally t;
         if not (retx = (seq <= s.shadow_maxseq)) then
           report_violation t ~subject:s.label ~rule:"send-labeling"
             ~detail:
               (Printf.sprintf
                  "seq=%d retx=%b shadow_maxseq=%d: a send below the \
                   transmission frontier must be labelled a retransmission \
                   (and vice versa)"
                  seq retx s.shadow_maxseq);
         tally t;
         if not (seq >= 0 && seq > b.Tcp.Sender_common.una) then
           report_violation t ~subject:s.label ~rule:"send-labeling"
             ~detail:
               (Printf.sprintf "sent seq=%d at or below una=%d" seq
                  b.Tcp.Sender_common.una);
         if seq > s.shadow_maxseq then s.shadow_maxseq <- seq;
         check_sender_core t s;
         check_rr t s
       end
       else if seq > s.shadow_maxseq then s.shadow_maxseq <- seq));
  Tcp.Sender_common.on_ack base (fun ~time:_ ~ackno ->
      (if due t then begin
         tally t;
         if not (ackno <= s.shadow_maxseq + 1) then
           report_violation t ~subject:s.label ~rule:"ack-bounds"
             ~detail:
               (Printf.sprintf "ackno=%d beyond highest transmission %d" ackno
                  s.shadow_maxseq);
         tally t;
         if not (ackno >= s.last_cumulative) then
           report_violation t ~subject:s.label ~rule:"ack-bounds"
             ~detail:
               (Printf.sprintf "cumulative ACK moved backwards: %d after %d"
                  ackno s.last_cumulative);
         rr_probe_boundary_check t s ~ackno;
         if ackno > s.last_cumulative then s.last_cumulative <- ackno;
         check_sender_core t s;
         check_rr t s
       end
       else if ackno > s.last_cumulative then s.last_cumulative <- ackno));
  Tcp.Sender_common.on_recovery_enter base (fun ~time:_ ->
      s.episode_exit_point <- None);
  Tcp.Sender_common.on_recovery_exit base (fun ~time:_ ->
      s.episode_exit_point <- None);
  Tcp.Sender_common.on_timeout base (fun ~time:_ ->
      s.episode_exit_point <- None;
      if due t then check_sender_core t s)

(* -- queue-discipline packet conservation -- *)

(* [find] rather than [find_opt]: a hit, the per-event case, then
   allocates no option. *)
let flow_fifo q flow =
  match Hashtbl.find q.per_flow flow with
  | fifo -> fifo
  | exception Not_found ->
    let fifo = Queue.create () in
    Hashtbl.add q.per_flow flow fifo;
    fifo

let attach_queue t ~name disc =
  let q =
    {
      qname = name;
      disc;
      inside = 0;
      enq = 0;
      deq = 0;
      drop = 0;
      start =
        {
          Net.Queue_disc.enqueued = disc.Net.Queue_disc.stats.enqueued;
          dropped = disc.Net.Queue_disc.stats.dropped;
          dequeued = disc.Net.Queue_disc.stats.dequeued;
          bytes_dropped = disc.Net.Queue_disc.stats.bytes_dropped;
        };
      per_flow = Hashtbl.create 7;
    }
  in
  t.queues <- q :: t.queues;
  let subject = Printf.sprintf "queue %s" name in
  let occupancy_consistent () =
    tally t;
    if not (q.inside = q.disc.Net.Queue_disc.length ()) then
      report_violation t ~subject ~rule:"queue-conservation"
        ~detail:
          (Printf.sprintf "tracked occupancy %d but disc reports %d" q.inside
             (q.disc.Net.Queue_disc.length ()))
  in
  (* The per-flow FIFO rules (every dequeued uid was enqueued, flows
     leave in arrival order) need the full event stream: their uid
     bookkeeping breaks on any skipped event. They are active only at
     [sample = 1]; sampled audits keep the exact occupancy counters and
     the sampled conservation check. *)
  let full_stream = t.sample = 1 in
  Net.Queue_disc.subscribe disc (fun event packet ->
    match event with
    | Net.Queue_disc.Enqueued ->
      q.enq <- q.enq + 1;
      q.inside <- q.inside + 1;
      if full_stream then
        Queue.push packet.Net.Packet.uid (flow_fifo q packet.Net.Packet.flow);
      if due t then occupancy_consistent ()
    | Net.Queue_disc.Dropped ->
      q.drop <- q.drop + 1;
      if due t then occupancy_consistent ()
    | Net.Queue_disc.Dequeued ->
      q.deq <- q.deq + 1;
      q.inside <- q.inside - 1;
      let sampled = due t in
      if sampled then begin
        tally t;
        if not (q.inside >= 0) then
          report_violation t ~subject ~rule:"queue-conservation"
            ~detail:
              (Printf.sprintf "dequeued uid %d with tracked occupancy %d"
                 packet.Net.Packet.uid (q.inside + 1))
      end;
      if full_stream then begin
        let fifo = flow_fifo q packet.Net.Packet.flow in
        if Queue.is_empty fifo then
          report_violation t ~subject ~rule:"queue-conservation"
            ~detail:
              (Printf.sprintf "dequeued uid %d (flow %d) never enqueued"
                 packet.Net.Packet.uid packet.Net.Packet.flow)
        else begin
          let expected = Queue.pop fifo in
          tally t;
          if not (expected = packet.Net.Packet.uid) then
            report_violation t ~subject ~rule:"queue-fifo"
              ~detail:
                (Printf.sprintf
                   "flow %d reordered: dequeued uid %d while uid %d was in \
                    front"
                   packet.Net.Packet.flow packet.Net.Packet.uid expected)
        end
      end;
      if sampled then occupancy_consistent ())

let finalize_queue t q =
  let subject = Printf.sprintf "queue %s" q.qname in
  let stats = q.disc.Net.Queue_disc.stats in
  tally t;
  if not (q.enq - q.deq = q.disc.Net.Queue_disc.length () && q.inside >= 0)
  then
    report_violation t ~subject ~rule:"queue-conservation"
      ~detail:
        (Printf.sprintf
           "at end of run: %d enqueued, %d dequeued, %d still queued" q.enq
           q.deq
           (q.disc.Net.Queue_disc.length ()));
  tally t;
  if
    not
      (stats.Net.Queue_disc.enqueued - q.start.Net.Queue_disc.enqueued = q.enq
      && stats.Net.Queue_disc.dropped - q.start.Net.Queue_disc.dropped = q.drop
      && stats.Net.Queue_disc.dequeued - q.start.Net.Queue_disc.dequeued
         = q.deq)
  then
    report_violation t ~subject ~rule:"queue-stats"
      ~detail:
        (Printf.sprintf
           "stats drifted from observed events: enqueued %d<>%d, dropped \
            %d<>%d, dequeued %d<>%d"
           (stats.Net.Queue_disc.enqueued - q.start.Net.Queue_disc.enqueued)
           q.enq
           (stats.Net.Queue_disc.dropped - q.start.Net.Queue_disc.dropped)
           q.drop
           (stats.Net.Queue_disc.dequeued - q.start.Net.Queue_disc.dequeued)
           q.deq)

let finalize t =
  if not t.finalized then begin
    t.finalized <- true;
    List.iter (finalize_queue t) t.queues
  end

let report t =
  let buffer = Buffer.create 256 in
  Buffer.add_string buffer
    (Printf.sprintf "audit: %d checks, %d violation(s)\n" t.checks t.total);
  List.iter
    (fun v ->
      Buffer.add_string buffer
        (Printf.sprintf "  [%.6f] %s: %s — %s\n" v.time v.subject v.rule
           v.detail))
    (violations t);
  if t.total > max_recorded then
    Buffer.add_string buffer
      (Printf.sprintf "  … %d further violation(s) not recorded\n"
         (t.total - max_recorded));
  Buffer.contents buffer

(** Shared TCP-sender state and mechanics.

    Every congestion-control variant ({!Tahoe}, the {!Newreno} family,
    {!Sack}, {!Fack}, {!Vegas} and the paper's Robust Recovery) owns one
    of these records and layers its ACK-processing policy on top. The
    skeleton they share is here too: the ACK step outside recovery
    ({!open_ack}) and the prologue of a recovery episode
    ({!enter_recovery}). The record is deliberately transparent:
    variants mutate it directly, and white-box tests read it.

    Conventions (packet-unit sequence numbers, as in ns-2):
    - [una] is the highest cumulatively acknowledged segment, [-1]
      before any ACK; segment [una + 1] is the lowest outstanding one.
    - [t_seqno] is the next never-yet-sent segment.
    - [maxseq] is the highest segment ever transmitted.
    - [cwnd] and [ssthresh] are in segments; the usable window is
      [min cwnd rwnd]. Both live in dedicated flat float cells
      ({!fcell}) because a float field in this mixed record would be
      boxed on every ACK's store — read and write them through
      {!cwnd}/{!set_cwnd} and {!ssthresh}/{!set_ssthresh}. *)

type phase = Slow_start | Congestion_avoidance | Recovery

(** Multicast observer registry. Subscribe with {!on_send} & friends;
    every subscriber sees every event, in subscription order. *)
type hooks

(** A one-field all-float record is stored flat, so writing [v] is a
    plain float store — no box per update, unlike a float field in the
    mixed sender record below. *)
type fcell = { mutable v : float }

type t = {
  engine : Sim.Engine.t;
  params : Params.t;
  flow : int;
  emit : Net.Packet.t -> unit;
  cwnd : fcell;  (** use the {!cwnd}/{!set_cwnd} accessors *)
  ssthresh : fcell;  (** use the {!ssthresh}/{!set_ssthresh} accessors *)
  mutable una : int;
  mutable t_seqno : int;
  mutable maxseq : int;
  mutable dupacks : int;
  mutable phase : phase;
  mutable app_limit : int option;
      (** [Some n]: segments [0 .. n-1] are available; [None]: infinite
          source *)
  rto : Rto.t;
  mutable rtx_timer : Sim.Timer.t option;  (** set once at construction *)
  mutable timed : (int * float) option;
      (** segment being RTT-timed and its first-transmission time *)
  mutable uid_counter : int;
  mutable recover_mark : int;
      (** [maxseq] at the most recent loss-recovery event; 3 dup ACKs
          re-trigger fast retransmit only once the cumulative ACK has
          passed it (the ns-2 "bugfix": duplicate ACKs caused by
          go-back-N resends must not re-enter recovery) *)
  counters : Counters.t;
  hooks : hooks;
  mutable completed : bool;
  mutable on_complete : unit -> unit;
}

(** [create ~engine ~params ~flow ~emit ~timeout_action ()] builds the
    state with an armed-on-demand retransmission timer firing
    [timeout_action] (the variant's timeout policy — usually
    {!timeout_common} plus variant cleanup). *)
val create :
  engine:Sim.Engine.t ->
  params:Params.t ->
  flow:int ->
  emit:(Net.Packet.t -> unit) ->
  timeout_action:(t -> unit) ->
  unit ->
  t

(** [cwnd t] is the congestion window in segments. *)
val cwnd : t -> float

(** [set_cwnd t v] stores a new congestion window. *)
val set_cwnd : t -> float -> unit

(** [ssthresh t] is the slow-start threshold in segments. *)
val ssthresh : t -> float

(** [set_ssthresh t v] stores a new slow-start threshold. *)
val set_ssthresh : t -> float -> unit

(** [window t] is the usable send window in segments. *)
val window : t -> float

(** [outstanding t] is the number of unacknowledged segments in flight
    from the cumulative-ACK viewpoint: [t_seqno - una - 1]. *)
val outstanding : t -> int

(** [app_has_data t ~seq] reports whether the application has produced
    segment [seq]. *)
val app_has_data : t -> seq:int -> bool

(** [send_segment t ~seq ~retx] transmits segment [seq], stamping
    counters, RTT timing (first transmissions only — Karn's rule:
    retransmitting the timed segment cancels its timing), [maxseq], and
    (re)arming the retransmission timer. *)
val send_segment : t -> seq:int -> retx:bool -> unit

(** [send_new_data t ~count] transmits up to [count] segments beyond
    [maxseq], app-data permitting; used by recovery algorithms that
    clock new data off duplicate ACKs rather than the window. Returns
    how many were sent. *)
val send_new_data : t -> count:int -> int

(** [send_much t] sends new segments while the window allows and app
    data exists, respecting [max_burst] (when non-zero). *)
val send_much : t -> unit

(** [open_cwnd t] applies one ACK's worth of window growth: +1 segment
    in slow start, +1/cwnd in congestion avoidance. No-op in
    {!Recovery}. *)
val open_cwnd : t -> unit

(** [halve_ssthresh t] sets [ssthresh <- max (window /. 2) 2.] — the
    standard multiplicative-decrease target — and returns it. *)
val halve_ssthresh : t -> float

(** [advance_una t ~ackno] moves the cumulative-ACK point forward,
    samples the RTT when the timed segment is covered, restarts the
    retransmission timer (or cancels it when nothing is outstanding),
    fires the completion callback when a finite source finishes, and
    bumps ACK counters + hooks. Call with [ackno > una]. *)
val advance_una : t -> ackno:int -> unit

(** [note_dupack t] bumps duplicate-ACK counters and hooks. *)
val note_dupack : t -> unit

(** [open_ack t ~ackno] is the ACK step outside recovery. A new ACK
    resets [dupacks], advances [una], grows the window and sends. A
    duplicate is counted; it then either sends by {!limited_transmit}
    or, when it is the [dupack_threshold]-th and {!may_fast_retransmit}
    holds, sends nothing and returns [true], the caller's cue to fast
    retransmit. Every other case returns [false]; an ACK below [una], or
    a duplicate with nothing outstanding, is ignored. *)
val open_ack : t -> ackno:int -> bool

(** [enter_recovery t] is the prologue of every recovery episode: it
    counts the fast retransmit, sets [recover_mark] to [maxseq],
    notifies the recovery-entry hooks, sets [phase] to [Recovery] and
    drops the RTT timing (Karn's rule) ahead of the retransmission. The
    caller then cuts the window and retransmits. *)
val enter_recovery : t -> unit

(** [may_fast_retransmit t] reports whether a fresh burst of duplicate
    ACKs is trustworthy evidence of a new loss (see [recover_mark]). *)
val may_fast_retransmit : t -> bool

(** [limited_transmit t] implements RFC 3042 when enabled in params: on
    the first two duplicate ACKs (outside recovery), send one new
    segment, allowing the flight to exceed [cwnd] by up to two. Call it
    from the variant's duplicate-ACK path after bumping [dupacks]. *)
val limited_transmit : t -> unit

(** [timeout_common t] is the variant-independent part of an RTO expiry:
    counters, hook, RTO backoff, [ssthresh <- max (window/2) 2],
    [cwnd <- 1], slow start, go-back-N rollback of [t_seqno], Karn reset
    and retransmission of the first outstanding segment. *)
val timeout_common : t -> unit

(** [restart_rtx_timer t] re-arms the timer for the current RTO. *)
val restart_rtx_timer : t -> unit

(** [cancel_rtx_timer t] disarms the timer. *)
val cancel_rtx_timer : t -> unit

(** [set_app_limit t limit] updates the data horizon ([None] = infinite
    source). Does not by itself trigger sending. *)
val set_app_limit : t -> int option -> unit

(** [start t] begins transmission (initial [send_much]). *)
val start : t -> unit

(** {1 Event observation}

    Multicast subscriptions: any number of observers (flow traces,
    auditors, structured tracers) can attach to one sender; each event
    is delivered to every subscriber in subscription order.
    Subscriptions cannot be removed — observers live as long as the
    sender. *)

(** [on_send t f] calls [f] on every transmission, after the sender's
    own bookkeeping ([maxseq], counters) is updated. *)
val on_send : t -> (time:float -> seq:int -> retx:bool -> unit) -> unit

(** [on_ack t f] calls [f] on every ACK event: cumulative advances
    (from {!advance_una}, after [una] moved) and duplicates (from
    {!note_dupack}, with [ackno = una]). *)
val on_ack : t -> (time:float -> ackno:int -> unit) -> unit

(** [on_recovery_enter t f] calls [f] when a variant enters loss
    recovery (via {!enter_recovery}). *)
val on_recovery_enter : t -> (time:float -> unit) -> unit

(** [on_recovery_exit t f] is the matching exit notification. *)
val on_recovery_exit : t -> (time:float -> unit) -> unit

(** [on_timeout t f] calls [f] at every RTO expiry, before the
    timeout's state changes are applied. *)
val on_timeout : t -> (time:float -> unit) -> unit

(** [notify_recovery_exit t] broadcasts recovery exit at the current
    engine time; {!enter_recovery} broadcasts the entry. For variant
    implementations ({!Newreno}, {!Sack}, RR, …) — observers should
    subscribe instead. *)
val notify_recovery_exit : t -> unit

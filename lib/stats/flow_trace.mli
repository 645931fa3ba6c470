(** Per-flow event recorder.

    Attaches to a sender's hooks and records the transmission and ACK
    histories as time series, plus recovery-episode and timeout
    timestamps — everything the paper's figures are drawn from. *)

type t = {
  sends : Series.t;  (** (time, seq) of every transmission *)
  acks : Series.t;  (** (time, ackno), duplicates included *)
  una : Series.t;  (** (time, ackno) of cumulative progress only *)
  cwnd : Series.t;
      (** (time, cwnd in segments), sampled at every ACK event — the
          window trajectory behind statements like the paper's "bursty
          packet losses occur after cwnd reaches 16" *)
  mutable last_una : int;
      (** highest cumulative ACK recorded into [una] ([min_int] before
          the first) — lets the per-ack monotonicity check avoid
          allocating *)
  mutable recovery_entries : float list;  (** newest first *)
  mutable recovery_exits : float list;
  mutable timeouts : float list;
}

(** [attach agent] subscribes observers on the agent's sender state —
    other observers (auditors, tracers) can coexist — and returns the
    live recorder. *)
val attach : Tcp.Agent.t -> t

(** [recovery_episodes t] pairs up entry/exit times, oldest first;
    an unfinished episode is dropped. *)
val recovery_episodes : t -> (float * float) list

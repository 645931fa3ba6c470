(** Timeout-estimator divergence audit.

    Jain's "Divergence of Timeout Algorithms for Packet Retransmissions"
    (cs/9809097) predicts that an RTO estimator caught in a feedback
    loop — timeouts cause retransmissions, retransmissions load the
    path, load raises the RTT the estimator is trying to track — can run
    away instead of converging. This monitor watches attached senders
    for the two observable signatures:

    - {b rto-divergence}: across a window of observations (taken at
      every ACK and at every timeout, before its backoff applies) the
      rto/srtt ratio never falls and ends at least 6 times where it
      started — the timeout is trending away from the RTT it measures;
    - {b timeout-sync}: at least 2 distinct flows time out within
      0.5 s of each other — the synchronized burst behaviour that
      turns one fault into a fleet-wide stall.

    Unlike {!Auditor} violations, findings are {e observations}, not
    bugs: the estimator-divergence experiment exists to measure when
    each {!Tcp.Rto.estimator} produces them. The monitor is attached
    only on request (see {!Experiments.Scenario}'s [watch_divergence])
    and never perturbs the run — hooks observe, they do not steer. *)

type finding = {
  time : float;
  subject : string;
  rule : string;  (** ["rto-divergence"] or ["timeout-sync"] *)
  detail : string;
}

type t

(** [create ~engine ()] builds an idle monitor. The divergence rule
    watches windows of 4 observations for a 6-fold rise (about three
    uninterrupted backoff doublings); the synchronization rule fires
    when 2 flows time out within 0.5 s. At most 100 findings keep their
    detail text (counts are always exact). *)
val create : engine:Sim.Engine.t -> unit -> t

(** [attach_sender t ~label agent] subscribes to the sender's ACK and
    timeout hooks. Call once per flow, before the run. *)
val attach_sender : t -> label:string -> Tcp.Agent.t -> unit

(** Recorded findings, oldest first. *)
val findings : t -> finding list

(** Total findings of the ["rto-divergence"] rule. *)
val divergence_count : t -> int

(** Total findings of the ["timeout-sync"] rule. *)
val sync_burst_count : t -> int

(** All findings, both rules. *)
val finding_count : t -> int

(** [quiet t] — no findings at all. *)
val quiet : t -> bool

(** Human-readable summary, one line per recorded finding. *)
val report : t -> string

(** Runtime invariant auditor.

    An auditor subscribes to the multicast event hooks of TCP senders
    ({!Tcp.Sender_common}) and queue disciplines ({!Net.Queue_disc}) and
    re-checks, on every event, the invariants the simulator is supposed
    to uphold:

    - {b sender ordering}: [una <= t_seqno - 1 <= maxseq], a
      non-negative flight, [cwnd >= 1] and [ssthresh >= 2];
    - {b dupack consistency}: past the duplicate-ACK threshold outside
      recovery, fast retransmit must be suppressed by the [recover_mark]
      rule (skipped for Vegas, whose fine-grained retransmit timer
      legitimately outruns the counter);
    - {b send labelling}: a transmission at or below the highest
      sequence ever sent must be flagged as a retransmission, and vice
      versa — checked against an independently maintained shadow of
      [maxseq];
    - {b ACK sanity}: cumulative ACKs never regress and never
      acknowledge data beyond the shadow [maxseq];
    - {b RR recovery}: [actnum], [ndup] and the further-loss count stay
      non-negative, the exit point is monotone within an episode and
      never beyond [maxseq], and [ndup] is reset at each probe-RTT
      boundary;
    - {b packet conservation}: each queue's observed occupancy matches
      what the discipline reports, every dequeued packet was previously
      enqueued, packets of one flow leave in arrival order, and the
      discipline's statistics agree with the observed event counts.

    Checks run inside the event hooks, i.e. at well-defined points of
    each sender transaction; violations are recorded (with the engine
    time), never raised, so a broken run still completes and reports.

    {b Sampling.} An auditor created with [~sample:n] evaluates the
    check batteries on 1-in-[n] observed events instead of every one.
    The cheap shadow state every rule compares against (shadow
    [maxseq], the cumulative-ACK point, queue occupancy and event
    counters) is still maintained exactly on {e every} event, so a
    sampled check never produces a false positive — sampling only
    trades detection probability of transient violations for audit
    cost. Two rules need the full event stream and are active only at
    [sample = 1]: {b queue-fifo} and the dequeued-but-never-enqueued
    arm of {b queue-conservation}, whose per-uid bookkeeping breaks on
    any skipped event. End-of-run {!finalize} checks use exact
    counters and run at every sampling rate. *)

type violation = {
  time : float;  (** engine time at detection *)
  subject : string;  (** e.g. ["flow 0 (rr)"] or ["queue gateway"] *)
  rule : string;  (** stable rule identifier, e.g. ["queue-fifo"] *)
  detail : string;  (** human-readable specifics *)
}

type t

(** [create ~engine ()] builds an auditor stamping violations with
    [engine]'s clock. At most 100 violations are stored verbatim;
    further ones are only counted. [sample] (default 1 = audit every
    event) enables 1-in-[n] sampling as described above.

    @raise Invalid_argument if [sample < 1]. *)
val create : ?sample:int -> engine:Sim.Engine.t -> unit -> t

(** [sample t] is the sampling divisor [t] was created with. *)
val sample : t -> int

(** [attach_sender t ~label agent] subscribes the sender checks to
    [agent]'s hooks. Pass [?rr] to also check Robust-Recovery
    invariants through the introspection handle. [label] names the
    subject in reports. *)
val attach_sender :
  t -> ?rr:Core.Rr.handle -> label:string -> Tcp.Agent.t -> unit

(** [attach_queue t ~name disc] subscribes the packet-conservation
    checks to [disc]. Occupancy already queued at attach time must be
    zero (attach before the run starts). *)
val attach_queue : t -> name:string -> Net.Queue_disc.t -> unit

(** [finalize t] runs the end-of-run checks (queue-statistics
    consistency, final occupancy). Idempotent. *)
val finalize : t -> unit

(** [ok t] is [true] when no check has failed so far. *)
val ok : t -> bool

(** [violation_count t] counts all failed checks, including those
    beyond the recording cap. *)
val violation_count : t -> int

(** [checks_run t] counts individual invariant evaluations. *)
val checks_run : t -> int

(** [violations t] lists recorded violations, oldest first. *)
val violations : t -> violation list

(** [report t] renders a multi-line summary ending in a newline. *)
val report : t -> string

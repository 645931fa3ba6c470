(** Robust Recovery (RR) — the congestion-recovery algorithm of
    "Robust TCP Congestion Recovery" (Wang & Shin, ICDCS 2001).

    RR treats all losses within one window as a single congestion
    signal. It is sender-side only: it needs neither SACK nor any
    receiver modification, relying on the receiver's standard immediate
    duplicate ACKs.

    During recovery, [cwnd] is frozen and transmission control passes to
    [actnum], an accurate count of data in flight (the paper's §2.1
    point: [cwnd] over-counts because it includes {e dormant} packets
    queued at the receiver and {e dropped} packets, neither of which is
    in the path any more).

    Phases, per the paper's Figure 1/2:

    - {b Retreat} (the first RTT, entered by fast retransmit):
      exponential back-off — one new segment per {e two} duplicate ACKs;
      [ssthresh <- window/2]; [actnum = 0].
    - {b Probe} (started by the first non-duplicate ACK, which also sets
      [actnum] to the number of new segments sent in retreat): each RTT
      is delimited by a partial ACK, which triggers the immediate
      retransmission of the next hole; every duplicate ACK clocks out
      one new segment. At each RTT boundary the sender compares [ndup]
      (dup ACKs received this RTT — i.e. new segments from last RTT that
      arrived) against [actnum] (new segments sent last RTT):
      {ul
      {- [ndup = actnum]: no further loss — [actnum <- actnum + 1] and
         one extra segment is sent, mirroring congestion avoidance;}
      {- [ndup < actnum]: further losses — [actnum <- ndup] (linear
         back-off) and the recovery exit point advances to the current
         [snd.nxt] so the new holes are repaired before leaving.}}
    - {b Exit} (cumulative ACK reaches the exit point):
      [cwnd <- actnum] segments — the true in-flight amount — so the big
      ACK releases just one new segment (packet conservation, no burst),
      and control returns to the ordinary congestion machinery.

    Retransmission losses are still repaired by timeout, as usual. *)

(** {1 Introspection}

    White-box observation points used by tests and by the ablation
    benchmarks. *)

type stage = Retreat | Probe

type probe_view = {
  stage : stage;
  exit_point : int;  (** recovery ends when the cumulative ACK reaches it *)
  actnum : int;  (** new segments sent last RTT (0 in retreat) *)
  ndup : int;  (** duplicate ACKs seen this RTT *)
  further_losses : int;  (** total further losses detected so far *)
}

(** Handle onto an RR sender's live recovery state. *)
type handle

(** [inspect handle] is the live recovery state, or [None] outside
    recovery. *)
val inspect : handle -> probe_view option

(** [recoveries handle] counts completed recovery episodes (exits, not
    timeouts). *)
val recoveries : handle -> int

(** {1 Ablation}

    The paper motivates three design decisions; an [ablation] flips
    any of them, for the ablation benchmarks DESIGN.md calls out. *)

type ablation = {
  retreat_per_dupack : bool;
      (** send one new segment per dup ACK in retreat (right-edge
          recovery style) instead of per two *)
  multiplicative_backoff : bool;
      (** on further loss, halve [actnum] instead of setting it to
          [ndup] *)
  exit_to_ssthresh : bool;
      (** on exit, set [cwnd <- ssthresh] (New-Reno style) instead of
          [cwnd <- actnum] *)
}

(** The paper's design: all three flags off. *)
val paper_design : ablation

(** {1 Construction} *)

(** [create ~engine ~params ~flow ~emit ~ablation ()] builds an RR
    sender with the design decisions [ablation] flips
    ({!paper_design} for the paper's RR), and the handle onto its
    recovery state, so every run, ablated or not, stays auditable. *)
val create :
  engine:Sim.Engine.t ->
  params:Tcp.Params.t ->
  flow:int ->
  emit:(Net.Packet.t -> unit) ->
  ablation:ablation ->
  unit ->
  Tcp.Agent.t * handle

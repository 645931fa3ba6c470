(** TCP agent parameters.

    Sequence numbers, windows and buffers are counted in fixed-size
    segments (packets), following ns-2's one-way TCP agents and the
    paper's setup: 1000-byte data packets, 40-byte ACKs. *)

type t = {
  mss : int;  (** data segment size in bytes (wire size) *)
  ack_size : int;  (** ACK packet size in bytes *)
  initial_cwnd : float;  (** initial congestion window, segments *)
  initial_ssthresh : float;  (** initial slow-start threshold, segments *)
  rwnd : int;  (** receiver advertised window, segments *)
  max_burst : int;
      (** cap on segments transmitted per incoming-ACK event; [0] means
          unlimited. New-Reno and SACK use the paper's "maxburst". *)
  dupack_threshold : int;  (** duplicate ACKs triggering fast retransmit *)
  min_rto : float;  (** seconds; classic coarse-timer floor *)
  max_rto : float;  (** seconds *)
  initial_rto : float;  (** RTO before the first RTT sample *)
  smooth_start : bool;
      (** the paper's cited Smooth-Start refinement (Wang, Xin, Reeves &
          Shin, ISCC 2000): damp slow-start growth to half rate once
          [cwnd] passes [ssthresh/2], reducing the overshoot burst that
          causes multi-loss windows in the first place. Off by default
          (the paper treats it as orthogonal to recovery). *)
  limited_transmit : bool;
      (** RFC 3042 (contemporary with the paper): send one new segment
          on each of the first two duplicate ACKs, so tiny windows can
          still muster the three dup ACKs fast retransmit needs. Off by
          default (not part of the paper's senders). *)
  rto_estimator : Rto.estimator;
      (** the retransmission-timeout prediction algorithm
          ({!Rto.estimator}); {!Rto.Jacobson} — the Jacobson/Karels
          smoother every classic TCP uses — by default. The
          alternatives exist to study estimator divergence (Jain,
          cs/9809097) and are selected per run via the campaign grid
          or [rr-sim --rto]. *)
  rrr_level : float;
      (** the RRR rule's ({!Newreno.rule}) target congestion level
          [ℓ ∈ (0, 1)]: each congestion event multiplies the window by
          [1 - ℓ]. [0.5] (the default) reproduces the Reno half-cut;
          other senders ignore the field. Selected per run via
          [rr-sim --rrr-level] or the campaign [--rrr-levels] axis. *)
}

(** Paper defaults: MSS 1000 B, ACK 40 B, cwnd₀ 1, ssthresh₀ 64,
    rwnd 10000 (i.e. effectively unbounded, as §4 assumes), maxburst 4,
    dupack threshold 3, RTO ∈ [1 s, 64 s], initial RTO 3 s. *)
val default : t

(** [validate t] checks internal consistency.

    @raise Invalid_argument when a field is out of range. *)
val validate : t -> unit

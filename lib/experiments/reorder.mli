(** Robustness to packet reordering (beyond the paper).

    Fast retransmit infers loss from 3 duplicate ACKs, so a network
    that reorders packets — route flutter, multi-path, link-layer
    retransmission — triggers {e spurious} recoveries: the "lost"
    segment arrives moments later, but the window has already been
    halved. This experiment measures how each variant's throughput and
    spurious-recovery count degrade as the reordering probability
    grows, using {!Faults.Injector.reorder} at the bottleneck entry
    (bounded extra delay, {!Faults.Spec.default_reorder_extra}).

    Setup: one persistent flow on the paper's dumbbell, no injected
    loss — recoveries beyond the prob-0 baseline (whose few episodes
    are genuine buffer-overflow losses) are reordering-induced. *)

(** One row per reordering probability; each run measures goodput
    (bits/s), fast retransmits (spurious recovery entries) and RTO
    expiries. *)
type outcome = float Variant_table.t

(** [run ()] sweeps reordering probabilities 0, 2, 5 and 10% for
    New-Reno, SACK and RR over seeds 5 and 23. *)
val run : unit -> outcome

(** [report outcome] renders the sweep. *)
val report : outcome -> string

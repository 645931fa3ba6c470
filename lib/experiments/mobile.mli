(** Mobile-channel robustness: fading, handover and bufferbloat
    (beyond the paper; ROADMAP item 4).

    A cellular link does not fail cleanly — its rate wanders across
    fading levels, and a handover is a short dark gap that burst-drops
    the queued backlog and resumes at the {e next} cell's rate. This
    experiment drives the dumbbell's trunk with the spec-DSL hostile
    clauses ([fade:...], [handover:...], realized through
    {!Faults.Timeline} and {!Faults.Injector.vary_link}) and compares
    variants under the paper's tight 8-packet gateway and a 64-packet
    deep-buffer (bufferbloat) regime, where rate down-steps translate
    into queueing delay instead of prompt loss. *)

(** One row per condition: its label, the gateway capacity in packets
    and the faults injected. Each run measures goodput (bits/s), RTO
    expiries and the packets burst-lost at handovers. *)
type outcome = (string * int * Faults.Spec.t) Variant_table.t

(** [run ()] measures New-Reno, SACK and RR across clean / fading /
    handover conditions, each under paper and deep buffers, over seeds
    7 and 29. *)
val run : unit -> outcome

(** [report outcome] renders the comparison. *)
val report : outcome -> string

(** Recovery across link outages (beyond the paper).

    A mobile or multi-homed path does not lose isolated packets — it
    goes {e dark} for hundreds of milliseconds (handoff) and comes back,
    or a route withdrawal empties the bottleneck buffer outright. This
    experiment cuts both trunk directions of the dumbbell on a periodic
    schedule ({!Faults.Schedule.periodic} via {!Faults.Injector}) and
    compares how each variant's goodput and timeout count survive, under
    both down-transition policies:

    - [`Hold_queued] (handoff): the bottleneck buffer survives the
      outage and drains on restore — losses come only from overflow
      while dark;
    - [`Drop_queued] (outage): the buffer is discarded at cut time, so
      every outage costs a whole window and recovery starts from
      scratch. *)

(** One row per condition, labelled: no flaps (the baseline), then the
    hold and drop policies. Each run measures goodput (bits/s), RTO
    expiries and the packets the flaps discarded. *)
type outcome = (string * Faults.Spec.t) Variant_table.t

(** [run ()] measures a 300 ms outage every 5 s for New-Reno, SACK and
    RR (default) under both policies, over seeds 7 and 29. *)
val run : ?variants:Core.Variant.t list -> unit -> outcome

(** [report outcome] renders the comparison. *)
val report : outcome -> string

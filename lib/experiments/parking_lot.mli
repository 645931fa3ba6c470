(** Parking-lot (multi-bottleneck) experiment (beyond the paper).

    Chains k bottleneck links with {!Net.Topology.parking_lot} and runs
    long flows end to end against per-hop cross traffic — the first
    {!Scenario} instance on a general graph topology. Long flows pay
    every hop's loss rate, so their goodput falls below the single-hop
    flows' share as hops grow. *)

(** One row per hop count, 1 and 3. Each cell measures, in this
    order: the mean goodput (bits/s) of the long flows and of all cross
    flows, then the drops of the long flows and of the cross flows. *)
type outcome = int Variant_table.t

(** [topology ~hops] is the {!Scenario.topology} value for a [hops]-
    bottleneck parking lot carrying 2 long and 2-per-hop cross flows,
    with the runner's knobs attached to the first bottleneck. *)
val topology : hops:int -> Scenario.topology

(** [run ()] measures NewReno, SACK and RR on 1 and 3 hops for 30 s at
    [seed] (default 7). *)
val run : ?seed:int64 -> unit -> outcome

(** [report outcome] renders the comparison. *)
val report : outcome -> string

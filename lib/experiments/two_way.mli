(** Two-way traffic (Zhang, Shenker & Clark — the paper's reference
    [22], the §3.3 citation for drop-tail pathologies).

    When data flows in both directions, the reverse trunk's queue is
    shared by the forward flows' ACKs and the backward flows' data:
    ACKs are delayed behind 1000-byte data packets and dropped when the
    buffer fills (ACK compression and ACK loss), which bursts and
    starves the forward flows' self-clocking. The experiment compares
    forward-flow performance with and without backward traffic, for
    Reno and RR senders; §2.3's claim that RR tolerates ACK loss
    gracefully gets an ecological test here. *)

(** One row. Each cell runs the forward flows alone, then against
    backward traffic, and measures, in this order: the forward flows'
    mean goodput (bits/s) alone and against backward traffic, the ACKs
    lost and the forward flows' timeouts in the two-way run, and the
    backward flows' mean goodput. *)
type outcome = unit Variant_table.t

(** [run ()] measures both directions for each variant (default Reno
    and RR). *)
val run :
  ?variants:Core.Variant.t list -> ?seed:int64 -> ?duration:float -> unit ->
  outcome

(** [report outcome] renders the comparison. *)
val report : outcome -> string

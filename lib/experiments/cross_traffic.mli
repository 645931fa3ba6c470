(** Competing with unresponsive CBR cross-traffic (beyond the paper).

    The paper's evaluation shares the bottleneck only among TCP flows,
    which all back off together. Real bottlenecks also carry traffic
    that does not respond to loss at all — constant-bit-rate UDP
    ({!Workload.Cbr}). This experiment gives a single TCP flow a
    bottleneck whose bandwidth is partly consumed by a CBR source and
    measures how much of the {e residual} capacity each variant
    actually extracts: an aggressive recovery scheme keeps the pipe
    full despite the permanently loss-inducing competitor, a timid one
    leaves residual bandwidth idle after every episode. *)

(** One row per CBR share (CBR offered load / bottleneck capacity).
    Each run measures TCP goodput (bits/s), timeouts, goodput as a
    fraction of the capacity the CBR leaves over (1.0 = TCP uses
    everything it could) and the fraction of CBR packets delivered. *)
type outcome = float Variant_table.t

(** [run ()] sweeps CBR shares 0, 0.25 and 0.5 of the bottleneck for
    New-Reno, SACK and RR (default) over seeds 7 and 41. *)
val run : ?variants:Core.Variant.t list -> unit -> outcome

(** [report outcome] renders the sweep. *)
val report : outcome -> string

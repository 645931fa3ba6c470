(** §5's convergence claim — "RR strictly follows the AIMD rule and is
    TCP-friendly. It converges to the optimal point if competing TCP
    connections have same RTTs" — plus the implied converse (AIMD's
    well-known RTT bias when they do not).

    Four same-variant flows share the bottleneck:

    - {b equal RTTs}: all four at the Table 3 delay — Jain's index must
      approach 1 (the convergence claim);
    - {b heterogeneous RTTs}: access delays staggered so the nominal
      RTTs are roughly 0.2/0.28/0.36/0.44 s — shorter-RTT flows win
      bandwidth, quantified by the goodput ratio of the fastest to the
      slowest flow. *)

(** One row. Each cell runs equal RTTs, then staggered RTTs, and
    measures, in this order: Jain's index with equal RTTs, Jain's index
    with staggered RTTs, the goodput of the shortest-RTT flow over the
    longest-RTT flow (infinity when the latter is 0), then each flow's
    goodput (bits/s) with staggered RTTs, by ascending RTT. *)
type outcome = { duration : float; table : unit Variant_table.t }

(** [run ()] measures RR and Reno (default). *)
val run :
  ?variants:Core.Variant.t list -> ?seed:int64 -> ?duration:float -> unit ->
  outcome

(** [report outcome] renders the comparison. *)
val report : outcome -> string

(** Long-RTT satellite paths (beyond the paper; ROADMAP item 4,
    PAPERS.md cs/9809066).

    A geostationary hop puts 500+ ms of one-way propagation under the
    paper's 0.8 Mbps trunk: a ~1.2 s RTT and a >100-packet
    bandwidth-delay product. Loss recovery dominates everything at that
    scale — a single timeout idles the pipe for seconds while slow-start
    rebuilds the window one RTT at a time, whereas dupack-clocked
    recovery retransmits within a round trip. This experiment compares
    variants on the paper's terrestrial path and on the satellite path
    (deep gateway and receiver window sized to the BDP) under light
    uniform loss. *)

(** One row per path: its label, the bottleneck one-way propagation
    (seconds), the gateway capacity (packets) and the receiver window
    (segments). Each run measures goodput (bits/s), timeouts and
    retransmits; the report adds utilization, the mean goodput over
    the bottleneck rate. *)
type outcome = (string * float * int * int) Variant_table.t

(** [run ()] measures Tahoe, New-Reno, SACK and RR on the paper's
    96 ms path and a 500 ms satellite path, over seeds 7 and 29. *)
val run : unit -> outcome

(** [report outcome] renders the comparison. *)
val report : outcome -> string

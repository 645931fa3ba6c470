(** Shared parameter record for dumbbell-shaped topologies.

    Extracted from {!Dumbbell} so both {!Dumbbell} and the
    {!Topology} builders (which express the dumbbell, the parking lot
    and the fat tree in terms of the same link-parameter vocabulary)
    can consume it without a dependency cycle. {!Dumbbell} re-exports
    these types under their historical names. *)

(** The gateway discipline under test at each bottleneck entry. *)
type gateway =
  | Droptail of { capacity : int }
  | Red of { capacity : int; params : Red.params }

(** Which way a flow's data travels across a dumbbell. [Forward] is the
    paper's S→K direction; [Backward] flows send data K→S over the
    reverse trunk, their ACKs returning on the forward trunk. *)
type direction = Forward | Backward

type t = {
  flows : int;
  side_bandwidth_bps : float;
  side_delay : float;
  bottleneck_bandwidth_bps : float;
  bottleneck_delay : float;  (** one-way *)
  gateway : gateway;
  access_capacity : int;  (** per-flow access-link buffers *)
  reverse_capacity : int;
      (** reverse-trunk buffer (ACKs, and data of [Backward] flows) *)
}

(** Table 3 parameters: 10 Mbps / 1 ms side links, 0.8 Mbps bottleneck,
    96 ms one-way bottleneck delay, 8-packet drop-tail gateway. *)
val paper : flows:int -> t

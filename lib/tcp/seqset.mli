(** Set of segment sequence numbers kept as disjoint inclusive intervals.

    Used for the receiver's out-of-order reassembly buffer and the SACK
    sender's scoreboard. Windows are small (tens of segments), so a
    sorted interval list is both simple and fast. *)

type t

(** [create ()] is the empty set. *)
val create : unit -> t

(** [add t seq] inserts one sequence number, merging adjacent
    intervals. Returns [true] when [seq] was not already present. *)
val add : t -> int -> bool

(** [add_range t ~first ~last] inserts the inclusive range. *)
val add_range : t -> first:int -> last:int -> unit

(** [add_blocks t blocks] inserts SACK blocks, each a half-open
    [(first, last + 1)] pair as {!Net.Packet.sack} carries them; an
    empty block is skipped. This is the SACK and FACK senders'
    scoreboard update. *)
val add_blocks : t -> (int * int) list -> unit

(** [mem t seq] tests membership. *)
val mem : t -> int -> bool

(** [remove_below t bound] deletes every element [< bound] (cumulative
    ACK advancing past them). *)
val remove_below : t -> int -> unit

(** [cardinal t] is the number of sequence numbers stored. *)
val cardinal : t -> int

(** [is_empty t] is [cardinal t = 0]. *)
val is_empty : t -> bool

(** [intervals t] lists the intervals as inclusive [(first, last)]
    pairs, ascending. *)
val intervals : t -> (int * int) list

(** [max_elt t] is the largest element, if any. *)
val max_elt : t -> int option

(** [first_gap_above t bound] is the smallest integer [>= bound] not in
    the set. *)
val first_gap_above : t -> int -> int

(** [clear t] empties the set. *)
val clear : t -> unit

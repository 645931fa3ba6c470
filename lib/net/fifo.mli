(** The packet FIFO behind {!Droptail} and {!Red}.

    A growable ring: pushing and taking allocate nothing (a [Queue.t]
    allocates a cell per push and an option per [take_opt]), and a
    taken packet's slot is cleared, so no packet outlives its stay in
    the queue. The ring does not bound its length; the disciplines
    enforce their capacity before pushing. *)

type t

(** [create ()] is an empty FIFO. *)
val create : unit -> t

(** [length t] is the number of packets queued. *)
val length : t -> int

(** [is_empty t] is [length t = 0]. *)
val is_empty : t -> bool

(** [push t p] appends [p]. *)
val push : t -> Packet.t -> unit

(** [take t] removes and returns the oldest packet, or {!Packet.none}
    when [t] is empty. *)
val take : t -> Packet.t

(** Common interface for queueing disciplines attached to links.

    A discipline decides, per arriving packet, whether to accept or drop
    it, and hands packets back to the link in its service order. Concrete
    disciplines ({!Droptail}, {!Red}) construct values of this closure
    record via {!make}; the record style keeps links independent of the
    discipline's internal state type.

    Every discipline built with {!make} carries a multicast observer
    list: auditors and tracers {!subscribe} to see each accept, drop and
    departure as it happens, without wrapping the queue. *)

type stats = {
  mutable enqueued : int;  (** packets accepted *)
  mutable dropped : int;  (** packets refused (all causes) *)
  mutable dequeued : int;  (** packets handed to the link *)
  mutable bytes_dropped : int;
}

(** One queue transition, delivered to observers beside its packet.
    [Dropped] packets were refused at enqueue and never entered the
    queue. *)
type event = Enqueued | Dropped | Dequeued

type t = {
  name : string;
  enqueue : Packet.t -> bool;
      (** [enqueue p] accepts [p] into the queue, returning [false] when
          the discipline drops it instead. *)
  dequeue : unit -> Packet.t;
      (** next packet to transmit, {!Packet.none} when empty — a
          sentinel rather than an option, so taking a packet allocates
          nothing *)
  length : unit -> int;  (** packets currently queued *)
  byte_length : unit -> int;  (** bytes currently queued *)
  stats : stats;
  observers : (event -> Packet.t -> unit) list ref;
      (** managed via {!subscribe} *)
}

(** [fresh_stats ()] is an all-zero counter record. *)
val fresh_stats : unit -> stats

(** [make ~name ~enqueue ~dequeue ~length ~byte_length ~stats ()] wraps
    a discipline implementation so every enqueue outcome and dequeue is
    broadcast to subscribers. Concrete disciplines must build their
    record through this. [dequeue] returns {!Packet.none} when the
    discipline is empty. The wrappers allocate nothing, observed or
    not. *)
val make :
  name:string ->
  enqueue:(Packet.t -> bool) ->
  dequeue:(unit -> Packet.t) ->
  length:(unit -> int) ->
  byte_length:(unit -> int) ->
  stats:stats ->
  unit ->
  t

(** [subscribe t f] adds [f] to the observer list; [f event packet] is
    called in subscription order, after the discipline's own state and
    [stats] are updated. Subscriptions cannot be removed. *)
val subscribe : t -> (event -> Packet.t -> unit) -> unit

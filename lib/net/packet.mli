(** Simulated packets.

    Following ns-2's one-way TCP agents — the substrate the paper's
    evaluation ran on — sequence numbers count fixed-size segments rather
    than bytes: data segment [seq] carries bytes
    [seq * mss .. (seq+1) * mss - 1] of the flow. An ACK with [ackno = k]
    acknowledges all segments [0..k] cumulatively; duplicate ACKs repeat
    the same [ackno]. SACK blocks are half-open segment ranges
    [(first, last_plus_one)] describing out-of-order data held by the
    receiver, most recent first.

    Packets are represented as a single all-immediate record: the
    direction tag and sequence number share one packed [info] word and
    the creation timestamp is stored in the engine's int encoding
    ({!Sim.Engine.bits_of_time}), so building a packet costs one
    allocation and per-packet hot paths
    ({!is_data}, {!seq_exn}, {!ackno_exn}) never allocate. {!kind}
    materializes the pattern-matchable view for cold paths. *)

(** Pattern-matchable view of a packet's payload, built on demand by
    {!kind}. *)
type kind =
  | Data of { seq : int }
  | Ack of { ackno : int; sack : (int * int) list }

type t = private {
  uid : int;  (** unique per simulation, for tracing *)
  flow : int;  (** flow (connection) identifier *)
  info : int;
      (** packed payload word: bit 0 is the data tag, bits 1..62 the
          (seqno|ackno) + 1 — see {!is_data}, {!seq_exn},
          {!ackno_exn} for decoded access *)
  sack : (int * int) list;  (** SACK ranges; [[]] for data packets *)
  size_bytes : int;  (** on-the-wire size, drives transmission delay *)
  born_bits : int;
      (** creation time in {!Sim.Engine.bits_of_time} encoding —
          {!born} decodes *)
}

(** [data ~uid ~flow ~seq ~size_bytes ~born] builds a data segment. *)
val data : uid:int -> flow:int -> seq:int -> size_bytes:int -> born:float -> t

(** [ack ~uid ~flow ~ackno ?sack ~size_bytes ~born ()] builds an ACK. *)
val ack :
  uid:int ->
  flow:int ->
  ackno:int ->
  ?sack:(int * int) list ->
  size_bytes:int ->
  born:float ->
  unit ->
  t

(** [data_bits] is {!data} stamped with an already-encoded creation
    time, such as {!Sim.Engine.now_bits}: no float crosses the call, so
    under the dev profile's [-opaque] the packet is the only
    allocation. *)
val data_bits :
  uid:int -> flow:int -> seq:int -> size_bytes:int -> born_bits:int -> t

(** [ack_bits] is {!ack} stamped with an already-encoded creation time
    and a required SACK list (an optional argument allocates its
    [Some] at every call). *)
val ack_bits :
  uid:int ->
  flow:int ->
  ackno:int ->
  sack:(int * int) list ->
  size_bytes:int ->
  born_bits:int ->
  t

(** [none] is the sentinel a queue discipline's [dequeue] returns when
    it is empty (see {!Queue_disc.t}), and what a ring's free slots
    hold. It belongs to no flow and is never sent. *)
val none : t

(** [is_none p] is [p == none]. *)
val is_none : t -> bool

(** [is_data t] reports whether [t] carries data. Allocation-free. *)
val is_data : t -> bool

(** [seq_exn t] is the sequence number of a data packet.
    Allocation-free.

    @raise Invalid_argument on an ACK. *)
val seq_exn : t -> int

(** [ackno_exn t] is the cumulative acknowledgement number of an ACK.
    Allocation-free.

    @raise Invalid_argument on a data packet. *)
val ackno_exn : t -> int

(** [sack t] is the SACK block list; [[]] for data packets. *)
val sack : t -> (int * int) list

(** [born t] is the creation timestamp. *)
val born : t -> float

(** [kind t] materializes the pattern-matchable payload view.
    Allocates; prefer the flat accessors on per-packet paths. *)
val kind : t -> kind

(** [pp] formats a packet for debugging and traces. *)
val pp : Format.formatter -> t -> unit

(** TCP receiver (sink).

    As in the paper's setup, the receiver by default acknowledges
    {e every} data packet immediately — the delayed-ACK mechanism is
    off, and an out-of-sequence arrival triggers an immediate duplicate
    ACK (§2.2). With [sack] enabled, ACKs carry up to 3 SACK blocks,
    the block containing the most recent arrival first.

    With [delayed_ack] enabled (an extension; the §4 model's constant C
    "lumps the ACK strategy"), in-order arrivals are acknowledged every
    second segment or after 100 ms, per RFC 1122/5681; gaps,
    duplicates and hole-filling arrivals are still ACKed immediately. *)

type t

(** [create ~engine ~flow ~emit ?sack ?ack_size ?delayed_ack ()]
    returns a sink that sends ACKs through [emit]. [delayed_ack]
    defaults to [false] (the paper's setting). *)
val create :
  engine:Sim.Engine.t ->
  flow:int ->
  emit:(Net.Packet.t -> unit) ->
  ?sack:bool ->
  ?ack_size:int ->
  ?delayed_ack:bool ->
  unit ->
  t

(** [deliver t packet] processes an arriving data packet (ACK packets
    are rejected).

    @raise Invalid_argument if [packet] is an ACK. *)
val deliver : t -> Net.Packet.t -> unit

(** [next_expected t] is the lowest segment not yet received in order —
    the in-order delivery point exposed to the application. *)
val next_expected : t -> int

(** [segments_received t] counts distinct data segments received. *)
val segments_received : t -> int

(** [duplicates_received t] counts arrivals of already-held segments. *)
val duplicates_received : t -> int

(** [acks_sent t] counts ACK packets emitted. *)
val acks_sent : t -> int

(** [buffered t] is the number of out-of-order segments held. *)
val buffered : t -> int

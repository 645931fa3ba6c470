(** Unidirectional point-to-point link.

    A link serializes packets at its bandwidth out of an attached queue
    discipline, then delivers each packet to the downstream consumer
    after the propagation delay. Transmission and propagation overlap as
    on a real wire: the next packet starts serializing as soon as the
    previous one has left the interface, so a link of bandwidth [b] and
    delay [d] delivers back-to-back packets [size/b] apart, each [d]
    after its transmission completes. *)

type t

(** [create ~engine ~bandwidth_bps ~delay ~queue ~dst ()] builds a link
    that serves [queue] and delivers to [dst].

    @raise Invalid_argument if [bandwidth_bps] is not positive and
    finite, or [delay] is not non-negative and finite (NaN included). *)
val create :
  engine:Sim.Engine.t ->
  bandwidth_bps:float ->
  delay:float ->
  queue:Queue_disc.t ->
  dst:(Packet.t -> unit) ->
  unit ->
  t

(** [send t packet] offers [packet] to the link's queue; the queue
    discipline may drop it. Transmission starts immediately when the
    link is idle. *)
val send : t -> Packet.t -> unit

(** [queue t] exposes the attached discipline (for stats and tests). *)
val queue : t -> Queue_disc.t

(** [busy t] reports whether a packet is currently being serialized. *)
val busy : t -> bool

(** [delivered t] is the number of packets handed to [dst] so far. *)
val delivered : t -> int

(** {1 Administrative state (fault injection)}

    A link is created up. While down, no new serialization starts: the
    interface is silent and arriving packets accumulate in (or are
    dropped by) the queue discipline as usual. The packet being
    serialized when the link goes down finishes its transmission and is
    delivered — transitions take effect at packet boundaries — and
    packets already propagating are likewise unaffected, so taking a
    link down never un-sends bits that left the interface. Bringing the
    link back up resumes service of whatever the queue then holds.
    [Faults.Injector] drives these from a deterministic schedule. *)

(** [set_up t up] raises ([true]) or cuts ([false]) the interface.
    Idempotent; [set_up t true] on a non-empty queue restarts service
    immediately. *)
val set_up : t -> bool -> unit

(** [is_up t] reports the current administrative state. *)
val is_up : t -> bool

(** {1 Time-varying conditions (hostile-network scenarios)}

    A link's rate and propagation delay may change while it runs —
    fading radio channels, cellular handover, path migration.  Changes
    bind at packet boundaries, mirroring [set_up]: the packet being
    serialized when [set_rate] is called finishes its transmission at
    the rate in force when it started, and [set_delay] applies to
    packets entering the wire from that moment on.  Bits already
    propagating are never re-timed, so delivery order per link is
    preserved under any step pattern.  [Faults.Injector] drives these
    from a deterministic {!Faults.Timeline}. *)

(** [rate_bps t] is the current serialization rate. *)
val rate_bps : t -> float

(** [delay t] is the current one-way propagation delay. *)
val delay : t -> float

(** [set_rate t bps] changes the serialization rate for packets whose
    transmission starts after this call.

    @raise Invalid_argument if [bps] is not positive and finite. *)
val set_rate : t -> float -> unit

(** [set_delay t d] changes the propagation delay for packets entering
    the wire after this call.

    @raise Invalid_argument if [d] is not non-negative and finite. *)
val set_delay : t -> float -> unit

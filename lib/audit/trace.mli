(** Structured JSONL event tracing.

    A tracer subscribes to the same multicast hooks as the auditor and
    writes one JSON object per line to an output channel. Events and
    their fields:

    {v
    {"t":0.102340,"ev":"send","flow":0,"seq":12,"retx":false}
    {"t":0.134200,"ev":"ack","flow":0,"ackno":12,"dup":false}
    {"t":0.150000,"ev":"recovery_enter","flow":0}
    {"t":0.310000,"ev":"recovery_exit","flow":0}
    {"t":1.540000,"ev":"timeout","flow":0}
    {"t":0.104510,"ev":"enqueue","queue":"gateway","flow":0,"kind":"data","seq":13,"uid":44}
    {"t":0.104510,"ev":"drop","queue":"gateway","flow":1,"kind":"data","seq":7,"uid":45}
    {"t":0.112010,"ev":"dequeue","queue":"gateway","flow":0,"kind":"data","seq":13,"uid":44}
    v}

    [t] is the engine time in seconds, [seq]/[ackno] are packet-unit
    sequence numbers, [uid] is the per-simulation packet id and [dup]
    marks ACKs that do not advance the flow's cumulative point. The
    channel is owned by the caller; the tracer only writes and
    {!flush}es. Lines are staged in an internal buffer and written out
    in chunks, so callers must {!flush} before closing the channel.

    {b Binary mode.} A tracer created with [~format:`Binary] records
    the same events as a compact length-prefixed binary stream instead
    of formatting JSON in the event hooks: a ["RRTB"] magic + version
    header, then one LEB128-length-prefixed record per event — tag
    byte, timestamp as the {!Sim.Engine.bits_of_time} int in 8
    little-endian bytes, then varint/zigzag fields; queue and link names are
    interned and referenced by id after their first occurrence (the
    full layout is documented in [trace.ml] and DESIGN.md). {!export}
    converts such a stream back offline into exactly the JSONL the
    default mode would have written live — byte for byte, including
    the recomputed ACK [dup] flags. *)

type t

(** [create ?flush_at ?format ~out ()] builds a tracer writing to
    [out] — JSONL by default, the binary container with [`Binary]. The
    internal staging buffer is drained to the channel whenever it
    reaches [flush_at] bytes (default 64 KiB) and on {!flush}; its
    initial capacity matches [flush_at], capped at 16 MiB.

    @raise Invalid_argument if [flush_at <= 0]. *)
val create :
  ?flush_at:int -> ?format:[ `Jsonl | `Binary ] -> out:out_channel -> unit -> t

(** [attach_sender t agent] records send/ack/recovery/timeout events of
    [agent]. *)
val attach_sender : t -> Tcp.Agent.t -> unit

(** [attach_queue t ~engine ~name disc] records enqueue/drop/dequeue
    events of [disc], stamped with [engine]'s clock and labelled
    [name]. *)
val attach_queue : t -> engine:Sim.Engine.t -> name:string -> Net.Queue_disc.t -> unit

(** [attach_injector t injector] records fault-injection events:

    {v
    {"t":4.000000,"ev":"link_down","link":"bottleneck"}
    {"t":4.500000,"ev":"link_up","link":"bottleneck"}
    {"t":4.000000,"ev":"fault_drop","link":"bottleneck","flow":0,"kind":"data","seq":41,"uid":230}
    {"t":2.104510,"ev":"reorder","path":"bottleneck","extra":0.013420,"flow":1,"kind":"data","seq":17,"uid":96}
    {"t":6.000000,"ev":"rate_change","link":"bottleneck","bps":400000}
    {"t":6.000000,"ev":"delay_change","link":"bottleneck","delay":0.250000}
    v} *)
val attach_injector : t -> Faults.Injector.t -> unit

(** [flush t] drains the staging buffer and flushes the underlying
    channel. *)
val flush : t -> unit

(** {1 Offline export} *)

(** Raised by {!export} on a malformed binary trace; the payload
    describes the first defect found. *)
exception Corrupt of string

(** [export ~input ~output] reads a binary trace (as written by a
    [`Binary] tracer) from [input] and writes the equivalent JSONL to
    [output], byte-identical to what a [`Jsonl] tracer observing the
    same events would have produced. Flushes [output]'s tracer staging
    but leaves closing both channels to the caller.

    @raise Corrupt on bad magic, truncation or undecodable records. *)
val export : input:in_channel -> output:out_channel -> unit

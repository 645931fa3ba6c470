(** Allocation-free span recorder for the traced run.

    A span is one call across a wrapped layer boundary: its kind (an
    index into the names given to {!create}), start, end, and the span
    open around it (its parent). Open spans live on a preallocated
    stack; each closed span is folded at once into per-(kind, parent)
    totals, so recording allocates nothing and the spans are written
    out once, at exit ({!report}). A span's self time is its duration
    minus the time its child spans cover. *)

type t

(** [create ?clock names] is an empty recorder for span kinds
    [0 .. Array.length names - 1]. [clock] reads nanoseconds (default
    {!Clock.now_ns}); tests pass a scripted one. *)
val create : ?clock:(unit -> int) -> string array -> t

(** [enter t kind] opens a span of [kind] under the innermost open one.
    @raise Invalid_argument past 64 nested spans. *)
val enter : t -> int -> unit

(** [leave t] closes the innermost open span.
    @raise Invalid_argument when none is open. *)
val leave : t -> unit

(** [wrap t kind f] is [f] with every call recorded as a span of
    [kind]. Only the returned closure is allocated, once. *)
val wrap : t -> int -> ('a -> 'b) -> 'a -> 'b

(** [reset t] forgets every closed span. *)
val reset : t -> unit

(** Totals over every parent, in nanoseconds. *)

val count : t -> int -> int

val total_ns : t -> int -> int

val self_ns : t -> int -> int

(** [report t] is one line per (kind, parent) pair seen: count, total
    and self milliseconds. *)
val report : t -> string

(** Incremental JSONL run journal for sweeps.

    The journal lives next to the result cache (by convention
    [_campaign/journal.jsonl]) and records every job's terminal state
    the moment it settles, one {!Json.to_string} object per line and
    record, flushed eagerly — so an interrupted or crashed campaign
    leaves an exact account of what finished, what failed and why:

    {v
    {"t":<wall>,"ev":"sweep_start","schema":"rr-sim-journal/1","sweep":"<md5>","total":24}
    {"t":<wall>,"ev":"job_settled","digest":"<md5>"}
    {"t":<wall>,"ev":"job_retry","digest":"<md5>","attempt":1,"failure":"crashed: ..."}
    {"t":<wall>,"ev":"job_failed","digest":"<md5>","failure":"timed out after 5s"}
    {"t":<wall>,"ev":"sweep_interrupted","settled":12,"failed":1}
    v}

    [sweep] is {!Sweep.sweep_digest} — the identity of the job set — so
    [--resume] can refuse to graft one campaign's journal onto another.
    Timestamps are wall-clock and informational only: they never enter
    any digest or report, so resumed runs stay byte-identical to
    uninterrupted ones. *)

type t

(** [start ~path ~sweep ~total] truncates [path] and writes the
    [sweep_start] header for a fresh campaign of [total] jobs. *)
val start : path:string -> sweep:string -> total:int -> t

(** Per-job records; each call appends one line and flushes it. *)

val settled : t -> digest:string -> unit

val failed : t -> digest:string -> failure:string -> unit

val retry : t -> digest:string -> attempt:int -> failure:string -> unit

(** [finish t ~settled ~failed ~interrupted] writes the terminal
    [sweep_complete] (or [sweep_interrupted]) record. *)
val finish : t -> settled:int -> failed:int -> interrupted:bool -> unit

val close : t -> unit

(** {1 Resuming} *)

(** What a previous run's journal settles: [settled] digests can be
    trusted to sit in the cache, [failed] carries the recorded failure
    renderings. Last record per digest wins, so a job that failed and
    later settled on resume counts as settled. *)
type snapshot = {
  sweep : string;
  settled : string list;
  failed : (string * string) list;
}

(** [load ~path] parses a journal (torn trailing lines are skipped,
    never fatal). A missing or unreadable journal, or one without a
    [sweep_start] record, is an [Error]. *)
val load : path:string -> (snapshot, string) result

(** [resume ~path ~sweep] validates that the journal at [path] belongs
    to the sweep identified by [sweep], reopens it in append mode,
    writes a [sweep_resume] record and returns the handle plus the
    previous run's {!snapshot}. *)
val resume : path:string -> sweep:string -> (t * snapshot, string) result

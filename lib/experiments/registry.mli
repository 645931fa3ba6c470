(** The experiment registry — one uniform handle per paper artifact.

    Every reproduction artifact (figures, tables, ablations,
    extensions) registers here exactly once as a record with a name, a
    one-line synopsis and a [run] thunk producing the printed report.
    The CLI's [all] and [list] commands and [verify_repro]'s report
    digests iterate this list instead of hand-wiring the per-figure
    modules. *)

type t = {
  name : string;  (** stable CLI identifier, e.g. ["fig5"] *)
  synopsis : string;  (** one line, suitable as a banner *)
  run : seed:int64 -> string;
      (** produce the experiment's report. [seed] is forwarded to every
          experiment that takes a single seed; experiments that average
          over their own fixed seed lists (fig7, ackloss) or are fully
          deterministic (ablation, sensitivity) ignore it. *)
}

(** All experiments, in the paper's presentation order followed by the
    extensions. Names are unique. *)
val all : t list

(** [find name] looks an experiment up by {!field-name}. *)
val find : string -> t option

(** [names] lists registered names, registration order. *)
val names : string list

(** Minimal JSON tree, printer and parser.

    The campaign cache and reporters need deterministic JSON without an
    external dependency; this covers exactly the subset the repo emits
    (finite numbers, strings, arrays, objects). Printing is canonical —
    no whitespace, fields in the order given — so a value's rendering
    is stable enough to be hashed and compared byte-for-byte. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** [to_string v] renders canonically (no whitespace). Numbers use the
    shortest round-trip representation; integral values print without a
    decimal point. *)
val to_string : t -> string

(** [pretty v] renders with two-space indentation, for files meant to
    be read by people. *)
val pretty : t -> string

(** [of_string s] parses a JSON document (UTF-8, [\uXXXX] escapes
    decoded). *)
val of_string : string -> (t, string) result

(** [member key v] is the field [key] of object [v]. *)
val member : string -> t -> t option

(** Coercions; [None] on a mismatched constructor. [to_float] accepts
    only finite numbers, [to_int] only integral ones within ±2{^53},
    where every integer is exact. *)

val to_float : t -> float option
val to_int : t -> int option
val to_str : t -> string option
val to_list : t -> t list option
val to_obj : t -> (string * t) list option

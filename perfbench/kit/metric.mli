(** The metrics the benchmark prints, and its result line.

    These tables are the single source of the names and units; the
    tests check them against [BENCHMARK.json]. *)

type spec = { name : string; unit : string }

(** Printed by a plain run ([--trace 0]). *)
val end_to_end : spec list

(** Printed by a traced run ([--trace 1]). *)
val per_layer : spec list

(** [result_line ~table ~correct ~attempted ~failed values] is the
    one-line JSON result: every metric of [table] with its unit, in
    table order, each value printed with all its digits.

    @raise Invalid_argument when [values] misses a metric of [table],
    names one outside it, or holds a non-finite number. *)
val result_line :
  table:spec list ->
  correct:bool ->
  attempted:int ->
  failed:int ->
  (string * float) list ->
  string

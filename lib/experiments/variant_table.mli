(** One condition × variant table: the shape the robustness artifacts
    beyond the paper share ({!Ack_loss}, {!Reorder}, {!Flaps},
    {!Cross_traffic}, {!Mobile}, {!Satellite}, {!Asym}).

    Each runs one scenario per row (a network condition), variant and
    seed, reduces every run to a few numbers, averages them over the
    seeds and prints one line per row: the row's key columns, then one
    column group per variant. An artifact supplies only its rows, how a
    row becomes a scenario, what it measures in a run and its columns. *)

type 'row t = {
  variants : Core.Variant.t list;
  rows : ('row * float array list list) list;
      (** each row with its runs' measures: one list per variant, in
          [variants] order, of one array per seed, in seed order *)
}

(** [run ~rows ~variants ~seeds ~scenario ~measure] runs
    [scenario row variant ~seed] for every row, variant and seed, in
    that nesting order, and keeps [measure row] of each run. *)
val run :
  rows:'row list ->
  variants:Core.Variant.t list ->
  seeds:int64 list ->
  scenario:('row -> Core.Variant.t -> seed:int64 -> Scenario.spec) ->
  measure:('row -> Scenario.t -> float array) ->
  'row t

(** [means runs] is each measure's {!Stats.Metrics.mean} over [runs],
    taken in the order of [runs]. *)
val means : float array list -> float array

(** A column: its header and how a cell is rendered. *)
type 'a column = string * ('a -> string)

(** [goodput] shows measure 0, a goodput in bits/s, in Kbps to one
    decimal under ["goodput (Kbps)"]. *)
val goodput : float array column

(** [count title i] shows measure [i] to one decimal under [title]. *)
val count : string -> int -> float array column

(** [render ~keys ~columns t] lays [t] out as a text table. Each row
    starts with its [keys] cells, rendered from the row and its runs,
    followed for every variant by the [columns] titled
    ["<variant> <title>"], rendered from that variant's {!means}. *)
val render :
  keys:('row * float array list list) column list ->
  columns:float array column list ->
  'row t ->
  string

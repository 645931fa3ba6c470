(** One condition × variant table: the shape the comparison artifacts
    beyond the paper's figures share ({!Ack_loss}, {!Reorder},
    {!Flaps}, {!Cross_traffic}, {!Mobile}, {!Satellite}, {!Asym},
    {!Sync}, {!Smooth}, {!Two_way}, {!Rtt_fairness}, {!Web_mice},
    {!Parking_lot}, {!Rrr_frontier}).

    Each runs one cell per row (a network condition), variant and seed,
    reduces every cell to a few numbers, averages them over the seeds
    and prints the table wide ({!render}: one line per row, one column
    group per variant) or long ({!render_long}: one line per variant
    and row). An artifact supplies only its rows, one cell function,
    its columns and its title. *)

type 'row t = {
  variants : Core.Variant.t list;
  rows : ('row * float array list list) list;
      (** each row with its cells' measures: one list per variant, in
          [variants] order, of one array per seed, in seed order *)
}

(** [run ~rows ~variants ~seeds measure] calls
    [measure row variant ~seed] for every row, variant and seed, in
    that nesting order, and keeps what it returns. A cell may run more
    than one scenario. Integer measures travel as floats. *)
val run :
  rows:'row list ->
  variants:Core.Variant.t list ->
  seeds:int64 list ->
  ('row -> Core.Variant.t -> seed:int64 -> float array) ->
  'row t

(** [means runs] is each measure's {!Stats.Metrics.mean} over [runs],
    taken in the order of [runs]. *)
val means : float array list -> float array

(** [cells t variant] is every row of [t] with [variant]'s {!means}, in
    row order. *)
val cells : 'row t -> Core.Variant.t -> ('row * float array) list

(** A column: its header and how a cell is rendered. *)
type 'a column = string * ('a -> string)

(** [kbps title i] shows measure [i], a rate in bits/s, in Kbps to one
    decimal under [title]. *)
val kbps : string -> int -> float array column

(** [goodput] is [kbps "goodput (Kbps)" 0]. *)
val goodput : float array column

(** [count title i] shows measure [i] to one decimal under [title]. *)
val count : string -> int -> float array column

(** [integer title i] shows measure [i] with no decimals under
    [title]: an integer measure of one seed prints as that integer. *)
val integer : string -> int -> float array column

(** [render ~keys ~columns t] lays [t] out as a text table. Each row
    starts with its [keys] cells, rendered from the row and its runs,
    followed for every variant by the [columns] titled
    ["<variant> <title>"], rendered from that variant's {!means}. *)
val render :
  keys:('row * float array list list) column list ->
  columns:float array column list ->
  'row t ->
  string

(** [render_long ~keys ~columns t] lays [t] out one line per variant
    and row, variants outermost: the [keys] cells, rendered from the
    row and the variant, then the [columns], rendered from the cell's
    {!means}. Headers are the titles alone. *)
val render_long :
  keys:('row * Core.Variant.t) column list ->
  columns:float array column list ->
  'row t ->
  string

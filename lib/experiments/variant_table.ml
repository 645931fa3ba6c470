type 'row t = {
  variants : Core.Variant.t list;
  rows : ('row * float array list list) list;
}

let run ~rows ~variants ~seeds measure =
  {
    variants;
    rows =
      List.map
        (fun row ->
          ( row,
            List.map
              (fun variant ->
                List.map (fun seed -> measure row variant ~seed) seeds)
              variants ))
        rows;
  }

let means runs =
  match runs with
  | [] -> [||]
  | first :: _ ->
    Array.init (Array.length first) (fun i ->
        Stats.Metrics.mean (List.map (fun measures -> measures.(i)) runs))

let cells t variant =
  List.map
    (fun (row, runs) ->
      (row, means (List.assoc variant (List.combine t.variants runs))))
    t.rows

type 'a column = string * ('a -> string)

let kbps title i =
  (title, fun means -> Printf.sprintf "%.1f" (means.(i) /. 1000.0))

let goodput = kbps "goodput (Kbps)" 0

let count title i = (title, fun means -> Printf.sprintf "%.1f" means.(i))

let integer title i = (title, fun means -> Printf.sprintf "%.0f" means.(i))

let render ~keys ~columns t =
  let header =
    List.map fst keys
    @ List.concat_map
        (fun variant ->
          List.map
            (fun (title, _) -> Core.Variant.name variant ^ " " ^ title)
            columns)
        t.variants
  in
  let line ((_, runs) as row) =
    List.map (fun (_, cell) -> cell row) keys
    @ List.concat_map
        (fun runs ->
          let means = means runs in
          List.map (fun (_, cell) -> cell means) columns)
        runs
  in
  Stats.Text_table.render ~header (List.map line t.rows)

let render_long ~keys ~columns t =
  let header = List.map fst keys @ List.map fst columns in
  let lines variant =
    List.map
      (fun (row, means) ->
        List.map (fun (_, cell) -> cell (row, variant)) keys
        @ List.map (fun (_, cell) -> cell means) columns)
      (cells t variant)
  in
  Stats.Text_table.render ~header (List.concat_map lines t.variants)

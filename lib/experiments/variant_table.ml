type 'row t = {
  variants : Core.Variant.t list;
  rows : ('row * float array list list) list;
}

let run ~rows ~variants ~seeds ~scenario ~measure =
  {
    variants;
    rows =
      List.map
        (fun row ->
          ( row,
            List.map
              (fun variant ->
                List.map
                  (fun seed ->
                    measure row (Scenario.run (scenario row variant ~seed)))
                  seeds)
              variants ))
        rows;
  }

let means runs =
  match runs with
  | [] -> [||]
  | first :: _ ->
    Array.init (Array.length first) (fun i ->
        Stats.Metrics.mean (List.map (fun measures -> measures.(i)) runs))

type 'a column = string * ('a -> string)

let goodput =
  ("goodput (Kbps)", fun means -> Printf.sprintf "%.1f" (means.(0) /. 1000.0))

let count title i = (title, fun means -> Printf.sprintf "%.1f" means.(i))

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

let median xs =
  match List.sort Float.compare xs with
  | [] -> invalid_arg "Sample.median: no samples"
  | sorted ->
    let n = List.length sorted in
    if n mod 2 = 1 then List.nth sorted (n / 2)
    else (List.nth sorted ((n / 2) - 1) +. List.nth sorted (n / 2)) /. 2.0

let per_second ~count ~seconds =
  match seconds with
  | [] -> invalid_arg "Sample.per_second: no passes"
  | _ ->
    float_of_int (count * List.length seconds) /. List.fold_left ( +. ) 0.0 seconds

let diff_ns_per ~count ~with_ ~without =
  (median with_ -. median without) *. 1e9 /. float_of_int count

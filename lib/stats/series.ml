type t = {
  mutable times : float array;
  mutable values : float array;
  mutable size : int;
}

let create () = { times = [||]; values = [||]; size = 0 }

let length t = t.size

let is_empty t = t.size = 0

let grow t =
  let capacity = max 64 (2 * Array.length t.times) in
  let times = Array.make capacity 0.0 in
  let values = Array.make capacity 0.0 in
  Array.blit t.times 0 times 0 t.size;
  Array.blit t.values 0 values 0 t.size;
  t.times <- times;
  t.values <- values

let[@inline] add t ~time ~value =
  if t.size > 0 && time < t.times.(t.size - 1) then
    invalid_arg "Series.add: time going backwards";
  if t.size = Array.length t.times then grow t;
  t.times.(t.size) <- time;
  t.values.(t.size) <- value;
  t.size <- t.size + 1

let add_int t ~time ~value = add t ~time ~value:(float_of_int value)

let to_list t =
  List.init t.size (fun i -> (t.times.(i), t.values.(i)))

(* Index of the latest sample with time <= [time], or -1. *)
let index_at t ~time =
  let rec bisect lo hi =
    (* Invariant: times.(lo) <= time < times.(hi) conceptually, with
       sentinels lo = -1 and hi = size. *)
    if hi - lo <= 1 then lo
    else
      let mid = (lo + hi) / 2 in
      if t.times.(mid) <= time then bisect mid hi else bisect lo mid
  in
  if t.size = 0 || time < t.times.(0) then -1 else bisect 0 t.size

let value_at t ~time =
  let i = index_at t ~time in
  if i < 0 then None else Some t.values.(i)

let last t =
  if t.size = 0 then None
  else Some (t.times.(t.size - 1), t.values.(t.size - 1))

let first_time_at_or_above t ~value =
  let rec scan i =
    if i >= t.size then None
    else if t.values.(i) >= value then Some t.times.(i)
    else scan (i + 1)
  in
  scan 0

let between t ~t0 ~t1 =
  let rec collect i acc =
    if i < 0 || t.times.(i) < t0 then acc
    else collect (i - 1) ((t.times.(i), t.values.(i)) :: acc)
  in
  collect (index_at t ~time:t1) []

let to_csv t =
  let buffer = Buffer.create (16 * t.size) in
  Buffer.add_string buffer "time,value\n";
  for i = 0 to t.size - 1 do
    Buffer.add_string buffer (Printf.sprintf "%.6f,%g\n" t.times.(i) t.values.(i))
  done;
  Buffer.contents buffer

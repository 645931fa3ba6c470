type t = {
  names : string array;
  clock : unit -> int;
  (* Closed-span aggregates, one cell per (kind, parent); parent -1 is
     "no enclosing span". *)
  count : int array;
  total : int array;
  self : int array;
  stack_kind : int array;
  stack_start : int array;
  stack_child : int array;  (* time covered by closed children *)
  mutable depth : int;  (* top of stack; -1 = empty *)
}

let max_depth = 64

let create ?(clock = Clock.now_ns) names =
  let n = Array.length names in
  let cells = n * (n + 1) in
  {
    names;
    clock;
    count = Array.make cells 0;
    total = Array.make cells 0;
    self = Array.make cells 0;
    stack_kind = Array.make max_depth 0;
    stack_start = Array.make max_depth 0;
    stack_child = Array.make max_depth 0;
    depth = -1;
  }

let cell t kind parent = (kind * (Array.length t.names + 1)) + parent + 1

let enter t kind =
  let d = t.depth + 1 in
  if d >= max_depth then invalid_arg "Span.enter: nesting too deep";
  t.depth <- d;
  t.stack_kind.(d) <- kind;
  t.stack_child.(d) <- 0;
  t.stack_start.(d) <- t.clock ()

let leave t =
  let d = t.depth in
  if d < 0 then invalid_arg "Span.leave: no open span";
  let stop = t.clock () in
  let kind = t.stack_kind.(d) in
  let duration = stop - t.stack_start.(d) in
  let c = cell t kind (if d = 0 then -1 else t.stack_kind.(d - 1)) in
  t.count.(c) <- t.count.(c) + 1;
  t.total.(c) <- t.total.(c) + duration;
  t.self.(c) <- t.self.(c) + duration - t.stack_child.(d);
  t.depth <- d - 1;
  if d > 0 then t.stack_child.(d - 1) <- t.stack_child.(d - 1) + duration

let wrap t kind f x =
  enter t kind;
  match f x with
  | v ->
    leave t;
    v
  | exception e ->
    leave t;
    raise e

let reset t =
  Array.fill t.count 0 (Array.length t.count) 0;
  Array.fill t.total 0 (Array.length t.total) 0;
  Array.fill t.self 0 (Array.length t.self) 0;
  t.depth <- -1

let sum_over_parents t field kind =
  let acc = ref 0 in
  for parent = -1 to Array.length t.names - 1 do
    acc := !acc + field.(cell t kind parent)
  done;
  !acc

let count t kind = sum_over_parents t t.count kind

let total_ns t kind = sum_over_parents t t.total kind

let self_ns t kind = sum_over_parents t t.self kind

let report t =
  let buffer = Buffer.create 512 in
  Array.iteri
    (fun kind name ->
      for parent = -1 to Array.length t.names - 1 do
        let c = cell t kind parent in
        if t.count.(c) > 0 then
          Printf.bprintf buffer "span %-24s parent %-24s %10d calls %12.3f ms %12.3f ms self\n"
            name
            (if parent < 0 then "-" else t.names.(parent))
            t.count.(c)
            (float_of_int t.total.(c) *. 1e-6)
            (float_of_int t.self.(c) *. 1e-6)
      done)
    t.names;
  Buffer.contents buffer

(* Disjoint, non-adjacent, ascending inclusive intervals. *)
type t = { mutable intervals : (int * int) list }

let create () = { intervals = [] }

let intervals t = t.intervals

let is_empty t = t.intervals = []

let cardinal t =
  List.fold_left (fun acc (first, last) -> acc + last - first + 1) 0 t.intervals

(* [mem] and [remove_below] walk with top-level functions: a local one
   capturing [seq] or [bound] would be a closure allocated per call,
   and the receiver calls both for every segment. *)
let rec mem_in seq = function
  | [] -> false
  | (first, last) :: rest -> (first <= seq && seq <= last) || mem_in seq rest

let mem t seq = mem_in seq t.intervals

let add_range t ~first ~last =
  if first > last then invalid_arg "Seqset.add_range: first > last";
  (* Split the list around the insertion, merging every interval that
     overlaps or is adjacent to [first - 1, last + 1]. *)
  let rec insert acc lo hi = function
    | [] -> List.rev_append acc [ (lo, hi) ]
    | ((f, l) as iv) :: rest ->
      if l < lo - 1 then insert (iv :: acc) lo hi rest
      else if f > hi + 1 then List.rev_append acc ((lo, hi) :: iv :: rest)
      else insert acc (min f lo) (max l hi) rest
  in
  t.intervals <- insert [] first last t.intervals

let rec add_blocks t = function
  | [] -> ()
  | (first, last_plus_one) :: rest ->
    if first < last_plus_one then add_range t ~first ~last:(last_plus_one - 1);
    add_blocks t rest

let add t seq =
  if mem t seq then false
  else begin
    add_range t ~first:seq ~last:seq;
    true
  end

let rec prune bound = function
  | [] -> []
  | ((first, last) :: rest) as intervals ->
    if last < bound then prune bound rest
    else if first < bound then (bound, last) :: rest
    else intervals

let remove_below t bound = t.intervals <- prune bound t.intervals

let max_elt t =
  let rec last = function
    | [] -> None
    | [ (_, l) ] -> Some l
    | _ :: rest -> last rest
  in
  last t.intervals

let first_gap_above t bound =
  let rec scan candidate = function
    | [] -> candidate
    | (first, last) :: rest ->
      if candidate < first then candidate else scan (max candidate (last + 1)) rest
  in
  scan bound t.intervals

let clear t = t.intervals <- []

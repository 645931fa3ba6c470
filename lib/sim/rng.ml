type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = seed }

(* SplitMix64 output mixing (Steele, Lea & Flood 2014). *)
let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t =
  let seed = bits64 t in
  (* Mix once more so parent and child sequences do not overlap. *)
  { state = mix seed }

let float t =
  (* 53 high-quality bits mapped to [0, 1). *)
  let bits = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let float_range t ~lo ~hi =
  assert (lo < hi);
  lo +. ((hi -. lo) *. float t)

let int t n =
  assert (n > 0);
  (* Rejection sampling to avoid modulo bias. *)
  let n64 = Int64.of_int n in
  let rec draw () =
    let bits = Int64.shift_right_logical (bits64 t) 1 in
    let value = Int64.rem bits n64 in
    if Int64.(sub bits value > sub (sub max_int n64) 1L) then draw ()
    else Int64.to_int value
  in
  draw ()

let bernoulli t p =
  if p <= 0.0 then false else if p >= 1.0 then true else float t < p

let exponential t ~mean =
  assert (mean > 0.0);
  let u = float t in
  (* u = 0 would give infinity; 1 - u is in (0, 1]. *)
  -.mean *. log (1.0 -. u)

let pareto t ~shape ~scale =
  assert (shape > 0.0);
  assert (scale > 0.0);
  let u = float t in
  (* u = 0 would give infinity; 1 - u is in (0, 1]. *)
  scale /. ((1.0 -. u) ** (1.0 /. shape))

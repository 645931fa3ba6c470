type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;  (* sum of squared deviations from the mean *)
}

let create () = { n = 0; mean = 0.0; m2 = 0.0 }

let add t x =
  t.n <- t.n + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean))

let mean t = if t.n = 0 then nan else t.mean

let stddev t =
  if t.n < 2 then 0.0 else sqrt (t.m2 /. float_of_int (t.n - 1))

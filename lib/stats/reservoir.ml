type t = {
  sample : float array;
  rng : Sim.Rng.t;
  mutable seen : int;
  mutable sorted : bool;  (* sample.[0..min seen cap) is sorted *)
}

let create ~capacity ~rng () =
  if capacity < 1 then invalid_arg "Reservoir.create: capacity < 1";
  { sample = Array.make capacity 0.0; rng; seen = 0; sorted = true }

let add t x =
  let capacity = Array.length t.sample in
  if t.seen < capacity then begin
    t.sample.(t.seen) <- x;
    t.seen <- t.seen + 1;
    t.sorted <- false
  end
  else begin
    t.seen <- t.seen + 1;
    (* Algorithm R: the new observation survives with probability
       capacity/seen, landing in a uniformly chosen slot. Drawing the
       slot index first keeps the rng consumption one draw per
       observation, which pins the stream layout. *)
    let slot = Sim.Rng.int t.rng t.seen in
    if slot < capacity then begin
      t.sample.(slot) <- x;
      t.sorted <- false
    end
  end

let retained t = Stdlib.min t.seen (Array.length t.sample)

let ensure_sorted t =
  if not t.sorted then begin
    let n = retained t in
    let prefix = Array.sub t.sample 0 n in
    Array.sort compare prefix;
    Array.blit prefix 0 t.sample 0 n;
    t.sorted <- true
  end

let rank_of n q =
  let rank = int_of_float (ceil (q *. float_of_int n)) - 1 in
  Stdlib.max 0 (Stdlib.min (n - 1) rank)

let quantile t q =
  if not (q >= 0.0 && q <= 1.0) then
    invalid_arg "Reservoir.quantiles: q outside [0, 1]";
  let n = retained t in
  if n = 0 then nan
  else begin
    ensure_sorted t;
    t.sample.(rank_of n q)
  end

let quantiles t qs = List.map (quantile t) qs

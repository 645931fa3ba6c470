(* RNG tests: reproducibility, stream independence, output ranges and
   coarse distribution sanity. *)

let test_determinism () =
  let a = Sim.Rng.create 42L in
  let b = Sim.Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check bool) "same stream" true (Sim.Rng.bits64 a = Sim.Rng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Sim.Rng.create 1L in
  let b = Sim.Rng.create 2L in
  let differs = ref false in
  for _ = 1 to 10 do
    if Sim.Rng.bits64 a <> Sim.Rng.bits64 b then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_split_independence () =
  let parent = Sim.Rng.create 7L in
  let child = Sim.Rng.split parent in
  let child_values = List.init 50 (fun _ -> Sim.Rng.bits64 child) in
  let parent_values = List.init 50 (fun _ -> Sim.Rng.bits64 parent) in
  Alcotest.(check bool)
    "child stream is not the parent stream" true
    (child_values <> parent_values)

let test_float_range () =
  let rng = Sim.Rng.create 3L in
  for _ = 1 to 1000 do
    let x = Sim.Rng.float rng in
    Alcotest.(check bool) "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_float_range_bounds () =
  let rng = Sim.Rng.create 3L in
  for _ = 1 to 1000 do
    let x = Sim.Rng.float_range rng ~lo:(-5.0) ~hi:5.0 in
    Alcotest.(check bool) "in [lo,hi)" true (x >= -5.0 && x < 5.0)
  done

let test_int_range () =
  let rng = Sim.Rng.create 11L in
  let seen = Array.make 6 0 in
  for _ = 1 to 6000 do
    let k = Sim.Rng.int rng 6 in
    Alcotest.(check bool) "in [0,6)" true (k >= 0 && k < 6);
    seen.(k) <- seen.(k) + 1
  done;
  Array.iteri
    (fun i count ->
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d roughly uniform" i)
        true
        (count > 700 && count < 1300))
    seen

let test_bernoulli_edges () =
  let rng = Sim.Rng.create 5L in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 never" false (Sim.Rng.bernoulli rng 0.0);
    Alcotest.(check bool) "p=1 always" true (Sim.Rng.bernoulli rng 1.0)
  done

let test_bernoulli_rate () =
  let rng = Sim.Rng.create 13L in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Sim.Rng.bernoulli rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "rate %.3f near 0.3" rate)
    true
    (rate > 0.27 && rate < 0.33)

let test_exponential () =
  let rng = Sim.Rng.create 17L in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    let x = Sim.Rng.exponential rng ~mean:2.0 in
    Alcotest.(check bool) "positive" true (x >= 0.0);
    sum := !sum +. x
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.3f near 2.0" mean)
    true
    (mean > 1.85 && mean < 2.15)

let prop_int_in_range =
  QCheck2.Test.make ~name:"Rng.int stays in range"
    QCheck2.Gen.(pair (int_range 1 1000) int)
    (fun (n, seed) ->
      let rng = Sim.Rng.create (Int64.of_int seed) in
      let k = Sim.Rng.int rng n in
      k >= 0 && k < n)

let suite =
  [
    ( "rng",
      [
        Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
        Alcotest.test_case "split independence" `Quick test_split_independence;
        Alcotest.test_case "float range" `Quick test_float_range;
        Alcotest.test_case "float_range bounds" `Quick test_float_range_bounds;
        Alcotest.test_case "int uniformity" `Quick test_int_range;
        Alcotest.test_case "bernoulli edges" `Quick test_bernoulli_edges;
        Alcotest.test_case "bernoulli rate" `Quick test_bernoulli_rate;
        Alcotest.test_case "exponential mean" `Quick test_exponential;
        Qcheck_seed.to_alcotest prop_int_in_range;
      ] );
  ]

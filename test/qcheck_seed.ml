(* One fixed seed for every QCheck property in the suite, so a commit
   gets the same verdict on every run. QCHECK_SEED, the variable
   qcheck-alcotest reads, still overrides it to explore other cases:
   each property then draws exactly what qcheck-alcotest would draw
   under that seed. *)

let seed =
  match Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt with
  | Some seed -> seed
  | None -> 7

let () = Printf.printf "qcheck random seed: %d\n%!" seed

let to_alcotest ?long test =
  QCheck_alcotest.to_alcotest ?long ~rand:(Random.State.make [| seed |]) test

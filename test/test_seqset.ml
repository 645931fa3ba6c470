(* Interval-set tests, including a qcheck equivalence check against a
   naive list-of-integers reference implementation. *)

let test_empty () =
  let s = Tcp.Seqset.create () in
  Alcotest.(check bool) "empty" true (Tcp.Seqset.is_empty s);
  Alcotest.(check int) "cardinal" 0 (Tcp.Seqset.cardinal s);
  Alcotest.(check bool) "mem" false (Tcp.Seqset.mem s 3);
  Alcotest.(check bool) "max" true (Tcp.Seqset.max_elt s = None);
  Alcotest.(check int) "gap" 5 (Tcp.Seqset.first_gap_above s 5)

let test_add_and_merge () =
  let s = Tcp.Seqset.create () in
  Alcotest.(check bool) "fresh add" true (Tcp.Seqset.add s 5);
  Alcotest.(check bool) "duplicate add" false (Tcp.Seqset.add s 5);
  ignore (Tcp.Seqset.add s 7);
  Alcotest.(check (list (pair int int)))
    "separate" [ (5, 5); (7, 7) ] (Tcp.Seqset.intervals s);
  ignore (Tcp.Seqset.add s 6);
  Alcotest.(check (list (pair int int)))
    "merged" [ (5, 7) ] (Tcp.Seqset.intervals s);
  Alcotest.(check int) "cardinal" 3 (Tcp.Seqset.cardinal s)

let test_adjacent_merge () =
  let s = Tcp.Seqset.create () in
  ignore (Tcp.Seqset.add s 4);
  ignore (Tcp.Seqset.add s 5);
  Alcotest.(check (list (pair int int))) "adjacent" [ (4, 5) ] (Tcp.Seqset.intervals s)

let test_add_range () =
  let s = Tcp.Seqset.create () in
  Tcp.Seqset.add_range s ~first:10 ~last:20;
  Tcp.Seqset.add_range s ~first:15 ~last:25;
  Alcotest.(check (list (pair int int))) "overlap" [ (10, 25) ] (Tcp.Seqset.intervals s);
  Tcp.Seqset.add_range s ~first:0 ~last:3;
  Alcotest.(check (list (pair int int)))
    "disjoint below" [ (0, 3); (10, 25) ] (Tcp.Seqset.intervals s)

let test_remove_below () =
  let s = Tcp.Seqset.create () in
  Tcp.Seqset.add_range s ~first:1 ~last:5;
  Tcp.Seqset.add_range s ~first:8 ~last:10;
  Tcp.Seqset.remove_below s 4;
  Alcotest.(check (list (pair int int)))
    "truncated" [ (4, 5); (8, 10) ] (Tcp.Seqset.intervals s);
  Tcp.Seqset.remove_below s 7;
  Alcotest.(check (list (pair int int))) "dropped" [ (8, 10) ] (Tcp.Seqset.intervals s)

let test_first_gap () =
  let s = Tcp.Seqset.create () in
  Tcp.Seqset.add_range s ~first:5 ~last:7;
  Tcp.Seqset.add_range s ~first:9 ~last:10;
  Alcotest.(check int) "below" 3 (Tcp.Seqset.first_gap_above s 3);
  Alcotest.(check int) "inside first" 8 (Tcp.Seqset.first_gap_above s 5);
  Alcotest.(check int) "inside gap" 8 (Tcp.Seqset.first_gap_above s 8);
  Alcotest.(check int) "inside second" 11 (Tcp.Seqset.first_gap_above s 9);
  Alcotest.(check int) "above" 42 (Tcp.Seqset.first_gap_above s 42)

let test_max_and_clear () =
  let s = Tcp.Seqset.create () in
  Tcp.Seqset.add_range s ~first:2 ~last:4;
  Tcp.Seqset.add_range s ~first:9 ~last:12;
  Alcotest.(check bool) "max" true (Tcp.Seqset.max_elt s = Some 12);
  Tcp.Seqset.clear s;
  Alcotest.(check bool) "cleared" true (Tcp.Seqset.is_empty s)

(* Reference model: a plain sorted de-duplicated integer list. *)
module Reference = struct
  type t = int list ref

  let create () = ref []

  let add t x = t := List.sort_uniq compare (x :: !t)

  let mem t x = List.mem x !t

  let remove_below t bound = t := List.filter (fun x -> x >= bound) !t

  let cardinal t = List.length !t

  let first_gap_above t bound =
    let rec scan candidate =
      if mem t candidate then scan (candidate + 1) else candidate
    in
    scan bound
end

type op = Add of int | Remove_below of int

let op_gen =
  QCheck2.Gen.(
    oneof
      [
        map (fun x -> Add x) (int_range 0 60);
        map (fun x -> Remove_below x) (int_range 0 60);
      ])

let prop_matches_reference =
  QCheck2.Test.make ~name:"seqset matches naive reference" ~count:500
    QCheck2.Gen.(list_size (int_range 0 60) op_gen)
    (fun ops ->
      let s = Tcp.Seqset.create () in
      let r = Reference.create () in
      List.iter
        (function
          | Add x ->
            ignore (Tcp.Seqset.add s x : bool);
            Reference.add r x
          | Remove_below bound ->
            Tcp.Seqset.remove_below s bound;
            Reference.remove_below r bound)
        ops;
      Tcp.Seqset.cardinal s = Reference.cardinal r
      && List.for_all (fun x -> Tcp.Seqset.mem s x = Reference.mem r x)
           (List.init 70 Fun.id)
      && List.for_all
           (fun b -> Tcp.Seqset.first_gap_above s b = Reference.first_gap_above r b)
           (List.init 70 Fun.id))

let prop_intervals_disjoint_sorted =
  QCheck2.Test.make ~name:"seqset intervals stay disjoint and sorted" ~count:500
    QCheck2.Gen.(list_size (int_range 0 40) (int_range 0 50))
    (fun adds ->
      let s = Tcp.Seqset.create () in
      List.iter (fun x -> ignore (Tcp.Seqset.add s x : bool)) adds;
      let rec well_formed = function
        | [] | [ _ ] -> true
        | (_, l1) :: ((f2, _) :: _ as rest) ->
          (* Gap of at least one (otherwise they should have merged). *)
          f2 > l1 + 1 && well_formed rest
      in
      let intervals = Tcp.Seqset.intervals s in
      List.for_all (fun (f, l) -> f <= l) intervals && well_formed intervals)

let suite =
  [
    ( "seqset",
      [
        Alcotest.test_case "empty" `Quick test_empty;
        Alcotest.test_case "add and merge" `Quick test_add_and_merge;
        Alcotest.test_case "adjacent merge" `Quick test_adjacent_merge;
        Alcotest.test_case "add_range" `Quick test_add_range;
        Alcotest.test_case "remove_below" `Quick test_remove_below;
        Alcotest.test_case "first_gap_above" `Quick test_first_gap;
        Alcotest.test_case "max and clear" `Quick test_max_and_clear;
        Qcheck_seed.to_alcotest prop_matches_reference;
        Qcheck_seed.to_alcotest prop_intervals_disjoint_sorted;
      ] );
  ]

(* The benchmark's entry point:

     main.exe --workload NAME --seconds S [--seed N] [--trace 0|1]

   runs one workload for S seconds of timed passes and prints, as the
   last line of standard output, one JSON object with the correctness
   verdict, the operations attempted and failed, and the end-to-end
   metrics (--trace 0) or the per-layer metrics (--trace 1). A
   human-readable summary goes to standard error. S has no default:
   BENCHMARK.json's run_seconds is the one figure the spreads in
   NOTES.md were measured at. *)

let workloads = [ ("simulate", W_simulate.measure); ("campaign", W_campaign.measure) ]

let usage () =
  prerr_endline "usage: main.exe --workload simulate|campaign --seconds S [--seed N] [--trace 0|1]";
  exit 2

let () =
  let workload = ref None
  and seed = ref Harness.default_seed
  and seconds = ref None
  and trace = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: name :: rest ->
      workload := Some name;
      parse rest
    | "--seed" :: n :: rest ->
      seed := int_of_string n;
      parse rest
    | "--seconds" :: s :: rest ->
      seconds := Some (float_of_string s);
      parse rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
      trace := t = "1";
      parse rest
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let name = match !workload with Some n -> n | None -> usage () in
  let measure = match List.assoc_opt name workloads with Some m -> m | None -> usage () in
  let seconds = match !seconds with Some s -> s | None -> usage () in
  let table =
    if !trace then Perfbench_kit.Metric.per_layer else Perfbench_kit.Metric.end_to_end
  in
  let values =
    Fun.protect
      ~finally:(fun () -> Harness.remove Harness.work_root)
      (fun () -> measure ~trace:!trace ~seed:!seed ~seconds)
  in
  (* A layer a workload does not reach reads 0. *)
  let values =
    values
    @ List.filter_map
        (fun { Perfbench_kit.Metric.name; _ } ->
          if List.mem_assoc name values then None else Some (name, 0.0))
        table
  in
  let attempted = !Harness.attempted and failed = !Harness.failed in
  Printf.eprintf "perfbench %s seed %d: %d operation(s), %d failed (fail_ratio %g ratio)\n"
    name !seed attempted failed
    (float_of_int failed /. float_of_int (max attempted 1));
  List.iter
    (fun { Perfbench_kit.Metric.name; unit } ->
      Printf.eprintf "  %-40s %14.6g %s\n" name (List.assoc name values) unit)
    table;
  prerr_string (Harness.samples_report ());
  if !trace then prerr_string (Harness.span_report ());
  print_endline
    (Perfbench_kit.Metric.result_line ~table
       ~correct:(attempted > 0 && failed = 0 && !Harness.pinned_ok)
       ~attempted ~failed values)

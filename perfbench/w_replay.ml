(* The trace-replay part of the simulate workload: a hostile dumbbell
   — RR, SACK, NewReno and Relentless flows under fading, cellular
   handovers and reordering, fully audited — recorded to a binary trace
   file, then exported to JSONL with Audit.Trace.export. One operation
   is one round trip. *)

open Experiments

let kind = "trace-replay"

(* Digest of the first pass's outputs at the default seed. *)
let pinned = "02e961f061281d41091c6c79112924d1"

let round_trips = 4

let horizon = 30.0

let faults =
  match Faults.Spec.of_string "fade:2+1+0.5+0.25,handover:5+0.4,reorder:0.05" with
  | Ok spec -> spec
  | Error message -> failwith message

let variants = Core.Variant.[ Rr; Sack; Newreno; Relentless ]

let specs ~seed ~horizon =
  let rng = Random.State.make [| seed |] in
  List.init round_trips (fun _ ->
      let seed = Int64.of_int (Random.State.bits rng) in
      let flows =
        List.mapi
          (fun i v -> { (Scenario.flow v) with Scenario.start = 0.25 *. float_of_int i })
          variants
      in
      Scenario.make
        ~topology:
          (Scenario.dumbbell
             {
               (Net.Dumbbell.paper_config ~flows:(List.length variants)) with
               Net.Dumbbell.gateway = Net.Dumbbell.Droptail { capacity = 25 };
             })
        ~flows
        ~params:{ Tcp.Params.default with rwnd = 64 }
        ~seed ~duration:horizon ~faults ())

let file dir i ext = Filename.concat dir (Printf.sprintf "rt%d.%s" i ext)

let with_out path f =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

(* The recording and the export are each one program call. Opening
   and closing their files is left out: the file system's latency for
   that swings with other tenants' I/O far more than the calls do. *)
let record ~dir i spec =
  with_out (file dir i "bin") (fun oc ->
      Scen.run { spec with Scenario.trace_out = Some oc; trace_format = `Binary })

let export ~dir i =
  let ic = open_in_bin (file dir i "bin") in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      with_out (file dir i "jsonl") (fun output ->
          Harness.call (fun () -> Audit.Trace.export ~input:ic ~output) ()))

(* One round trip. A [traced] one times its record and export calls
   as spans; [split] accumulates their program seconds apart. *)
let round_trip ?(traced = false) ?split ~dir i spec =
  let span kind f =
    if traced then Perfbench_kit.Span.wrap Harness.recorder kind f () else f ()
  in
  let (op, t), recorded =
    Harness.program_s (fun () -> span Harness.k_scenario (fun () -> record ~dir i spec))
  in
  let op, exported =
    Harness.program_s (fun () ->
        match op with
        | Harness.Failed _ -> op
        | Harness.Done _ -> (
          match span Harness.k_export (fun () -> export ~dir i) with
          | () -> op
          | exception Audit.Trace.Corrupt why -> Harness.Failed ("Trace.Corrupt: " ^ why)
          | exception e -> Harness.Failed ("Trace.export: " ^ Printexc.to_string e)))
  in
  Option.iter
    (fun (rec_s, exp_s) ->
      rec_s := !rec_s +. recorded;
      exp_s := !exp_s +. exported)
    split;
  (op, t)

(* After the timed calls: an op is only done if its exported JSONL is
   byte-identical to the reference pass's, when there is one. *)
let with_jsonl ~dir ~expected ops =
  List.mapi
    (fun i op ->
      match op with
      | Harness.Failed _ -> op
      | Harness.Done d ->
        let jsonl = Digest.to_hex (Digest.file (file dir i "jsonl")) in
        (match expected with
        | Some e when e.(i) <> jsonl -> Harness.Failed "exported JSONL differs"
        | _ -> Harness.Done (Harness.digest_of_string (d ^ jsonl))))
    ops

let count_lines path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go n = match input_line ic with _ -> go (n + 1) | exception End_of_file -> n in
      go 0)

type t = {
  full : Scenario.spec list;
  setup : Scenario.spec list;
  traced : Scenario.spec list;
  no_audit : Scenario.spec list;
  jsonl : string array;  (** digest of each round trip's exported JSONL *)
  counts : Scen.counts;  (** of one full pass *)
  events : int;  (** exported lines of one full pass *)
  bytes : int;  (** binary trace bytes of one full pass *)
}

(* Every pass writes into a fresh directory, removed once its exports
   are checked, so no pass truncates or frees the files of the pass
   before it: a set-up pass would pay for a full pass's trace. Returns
   the ops and the program seconds of the recordings and the exports. *)
let pass ?traced ~expected specs =
  let dir = Harness.fresh_dir () in
  let rec_s = ref 0.0 and exp_s = ref 0.0 in
  let ops =
    List.mapi (fun i spec -> fst (round_trip ?traced ~split:(rec_s, exp_s) ~dir i spec)) specs
  in
  let ops = with_jsonl ~dir ~expected ops in
  Harness.remove dir;
  (ops, !rec_s, !exp_s)

(* The reference pass, outside the timed loop: counts, sizes, and the
   check that each export equals a live JSONL trace of its spec. *)
let prepare ~seed =
  let full = specs ~seed ~horizon in
  let dir = Harness.fresh_dir () in
  let warm = List.mapi (fun i spec -> Scen.with_counts (round_trip ~dir i spec)) full in
  let each f = List.init round_trips f in
  let jsonl = Array.of_list (each (fun i -> Digest.to_hex (Digest.file (file dir i "jsonl")))) in
  let events = List.fold_left ( + ) 0 (each (fun i -> count_lines (file dir i "jsonl"))) in
  let bytes =
    List.fold_left ( + ) 0 (each (fun i -> (Unix.stat (file dir i "bin")).Unix.st_size))
  in
  let live_checked =
    List.mapi
      (fun i ((op, _), spec) ->
        match op with
        | Harness.Failed _ -> op
        | Harness.Done _ ->
          let live = file dir i "live" in
          with_out live (fun oc ->
              ignore (Scenario.run { spec with Scenario.trace_out = Some oc }));
          if Digest.to_hex (Digest.file live) <> jsonl.(i) then
            Harness.Failed "exported JSONL differs from a live JSONL trace"
          else op)
      (List.combine warm full)
  in
  let ops = with_jsonl ~dir ~expected:None live_checked in
  Harness.remove dir;
  Harness.check ~kind ops;
  Harness.expect ~kind:(kind ^ " no-trace") (List.map fst warm);
  Harness.pin ~kind ~seed ~pinned ops;
  {
    full;
    setup = specs ~seed ~horizon:0.001;
    traced = List.map Scen.traced full;
    no_audit = List.map Scen.without_audit full;
    jsonl;
    counts = Scen.total (List.map snd warm);
    events;
    bytes;
  }

(* One full pass; returns the program seconds of its recordings and of
   its exports. *)
let plain t () =
  let ops, rec_s, exp_s = pass ~expected:(Some t.jsonl) t.full in
  Harness.check ~kind ops;
  (rec_s, exp_s)

let setup t () =
  let ops, _, _ = pass ~expected:None t.setup in
  Harness.check ~kind:(kind ^ " set-up") ops

let traced t () =
  let ops, _, _ = pass ~traced:true ~expected:(Some t.jsonl) t.traced in
  Harness.check ~kind ops

(* Without the auditor; returns the program seconds of the recordings
   alone, which is all the auditor touches. *)
let no_audit t () =
  let ops, rec_s, _ = pass ~expected:(Some t.jsonl) t.no_audit in
  Harness.check ~kind ops;
  rec_s

(* The same runs writing no trace at all must simulate what the
   recorded runs did. *)
let no_trace t () =
  Harness.check ~kind:(kind ^ " no-trace") (List.map (fun spec -> fst (Scen.run spec)) t.full)

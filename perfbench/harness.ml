(* What every workload shares: the failure ledger, reference digests,
   the meter of program calls, the timed pass loop and the end-to-end
   metrics, the work directory, and the traced run's span recorder. *)

let attempted = ref 0

let failed = ref 0

(* False once a pinned digest differs: the outputs are wrong even if
   every operation ran. *)
let pinned_ok = ref true

let fail fmt =
  Printf.ksprintf
    (fun message ->
      incr failed;
      if !failed <= 5 then prerr_endline ("perfbench: failed: " ^ message))
    fmt

(* One operation's result: a digest of its simulated outputs, or why it
   failed (an exception, an auditor violation, a quarantined job, ...). *)
type op = Done of string | Failed of string

let guard label f =
  match f () with
  | outcome -> outcome
  | exception e -> Failed (label ^ ": " ^ Printexc.to_string e)

(* The first pass of each kind becomes the reference its later passes
   must reproduce op for op; a traced or no-audit pass names the plain
   pass's kind, so its simulated counts must match exactly. *)
let references : (string, string option array) Hashtbl.t = Hashtbl.create 8

let reference_of ops = Array.map (function Done d -> Some d | Failed _ -> None) ops

(* [expect ~kind ops] makes [ops] the reference of [kind] without
   counting them again. *)
let expect ~kind ops = Hashtbl.replace references kind (reference_of (Array.of_list ops))

let check ~kind ops =
  let ops = Array.of_list ops in
  attempted := !attempted + Array.length ops;
  let reference =
    match Hashtbl.find_opt references kind with
    | Some r -> r
    | None ->
      let r = reference_of ops in
      Hashtbl.replace references kind r;
      r
  in
  if Array.length reference <> Array.length ops then
    fail "%s: %d operations, reference has %d" kind (Array.length ops)
      (Array.length reference)
  else
    Array.iteri
      (fun i op ->
        match (op, reference.(i)) with
        | Failed why, _ -> fail "%s op %d: %s" kind i why
        | Done d, Some r when d <> r ->
          fail "%s op %d: outputs differ from the first pass" kind i
        | Done _, _ -> ())
      ops

(* At the default seed the outputs of the first plain pass must match
   the digest pinned in the workload. *)
let default_seed = 7

let digest_of_string s = Digest.to_hex (Digest.string s)

let pin ~kind ~seed ~pinned ops =
  if seed = default_seed then begin
    let digest =
      digest_of_string
        (String.concat "," (List.map (function Done d -> d | Failed _ -> "failed") ops))
    in
    if digest <> pinned then begin
      pinned_ok := false;
      prerr_endline
        (Printf.sprintf "perfbench: %s outputs digest %s, pinned %s" kind digest pinned)
    end
  end

(* The program's share of a pass. Every call into the program goes
   through [call], which adds its host nanoseconds and minor words
   here; the benchmark's own checking between calls is left out. *)
let program_ns = ref 0

let program_words = ref 0.0

let account t0 w0 =
  program_ns := !program_ns + (Perfbench_kit.Clock.now_ns () - t0);
  program_words := !program_words +. (Gc.minor_words () -. w0)

let call f x =
  let w0 = Gc.minor_words () in
  let t0 = Perfbench_kit.Clock.now_ns () in
  match f x with
  | v ->
    account t0 w0;
    v
  | exception e ->
    account t0 w0;
    raise e

(* [program_s f] is [f ()] with the host seconds of the program calls
   it made, for splitting a pass into its parts. *)
let program_s f =
  let ns0 = !program_ns in
  let v = f () in
  (v, float_of_int (!program_ns - ns0) *. 1e-9)

(* [metered f] runs the pass [f] and returns its result with the host
   seconds and minor words of the program calls it made. The heap is
   collected first, so a pass does not pay for the garbage of the one
   before it. *)
let metered f =
  Gc.full_major ();
  program_ns := 0;
  program_words := 0.0;
  let v = f () in
  (v, float_of_int !program_ns *. 1e-9, !program_words)

(* Named sample lists, kept for the summary on standard error. *)
let registry : (string * float list ref) list ref = ref []

let samples name =
  let r = ref [] in
  registry := !registry @ [ (name, r) ];
  r

(* [step samples pass] is a step that runs [pass] and records the
   host seconds of its program calls in [samples]. *)
let step samples pass () =
  let (), s, _ = metered pass in
  samples := s :: !samples

(* Timed passes, round-robin, until [seconds] of host time have gone
   by (at least [min_rounds] rounds, so every median has samples). *)
let min_rounds = 3

let rounds ~seconds steps =
  let t0 = Perfbench_kit.Clock.now_ns () in
  let rec loop n =
    List.iter (fun step -> step ()) steps;
    if n < min_rounds || Perfbench_kit.Clock.seconds_since t0 < seconds then
      loop (n + 1)
  in
  loop 1

(* A set-up pass takes milliseconds, so one set-up sample is as many
   back-to-back passes as fill this much program time, and reports
   their mean. *)
let setup_sample_s = 0.05

type timings = {
  plain : float list;  (** host seconds of each full pass *)
  setup : float list;  (** host seconds of one set-up pass, per sample *)
  words : float list;  (** minor words of each full pass *)
}

(* [passes ~seconds ~plain ~setup extra] alternates full passes
   ([plain]) and set-up samples ([setup] is the same pass with every
   horizon cut to 1 ms), with a traced run's [extra] steps between
   them, for [seconds]. Each pass checks its own outputs and calls the
   program through [call]. *)
let passes ~seconds ~plain ~setup extra =
  let plain_s = samples "plain" and setup_s = samples "setup" in
  let words = ref [] in
  let plain_step () =
    let (), s, w = metered plain in
    plain_s := s :: !plain_s;
    words := w :: !words
  in
  let setup_step () =
    let n, s, _ =
      metered (fun () ->
          let rec go n =
            setup ();
            if float_of_int !program_ns *. 1e-9 < setup_sample_s then go (n + 1) else n
          in
          go 1)
    in
    setup_s := (s /. float_of_int n) :: !setup_s
  in
  rounds ~seconds ((plain_step :: extra) @ [ setup_step ]);
  { plain = !plain_s; setup = !setup_s; words = !words }

(* VmHWM of this process, in MiB. Not getrusage's ru_maxrss: that
   survives execve, so it would count a launcher such as dune exec. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
        (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* The end-to-end metrics of a plain run, from a workload whose full
   pass simulates [segments] segments. *)
let end_to_end ~segments t =
  [
    ("segments_per_s", Perfbench_kit.Sample.per_second ~count:segments ~seconds:t.plain);
    ("setup_s", Perfbench_kit.Sample.median t.setup);
    ("peak_rss_mb", peak_rss_mb ());
  ]

(* Scratch files live under one directory of the working directory,
   removed at exit. *)
let work_root = "_perfbench"

let rec remove path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun name -> remove (Filename.concat path name)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let counter = ref 0

let fresh_dir () =
  if not (Sys.file_exists work_root) then Sys.mkdir work_root 0o755;
  incr counter;
  let dir = Filename.concat work_root (Printf.sprintf "p%d" !counter) in
  remove dir;
  Sys.mkdir dir 0o755;
  dir

(* The traced run's span kinds: one per wrapped boundary. *)
let span_names =
  [|
    "pass";
    "Scenario.run";
    "Agent.deliver_ack";
    "Rr.deliver_ack";
    "emit";
    "Engine.run_until";
    "Topology.tap";
    "Flock.inject";
    "Flock.deliver_ack";
    "Flock.deliver_data";
    "summary";
    "Trace.export";
  |]

let k_pass = 0
and k_scenario = 1
and k_sender_ack = 2
and k_rr_ack = 3
and k_emit = 4
and k_engine = 5
and k_tap = 6
and k_inject = 7
and k_flock_ack = 8
and k_flock_data = 9
and k_summary = 10
and k_export = 11

let recorder = Perfbench_kit.Span.create span_names

(* Self time of each kind over the last traced pass, in ns; pushed per
   pass so the per-layer figures are medians like the timings. *)
let self_samples = Array.make (Array.length span_names) []

let count_samples = Array.make (Array.length span_names) []

let traced_pass f =
  let module Span = Perfbench_kit.Span in
  Span.reset recorder;
  let v = Span.wrap recorder k_pass f () in
  Array.iteri
    (fun kind _ ->
      self_samples.(kind) <- float_of_int (Span.self_ns recorder kind) :: self_samples.(kind);
      count_samples.(kind) <- float_of_int (Span.count recorder kind) :: count_samples.(kind))
    span_names;
  v

let self_ns kind =
  match self_samples.(kind) with [] -> 0.0 | s -> Perfbench_kit.Sample.median s

let span_count kind =
  match count_samples.(kind) with [] -> 0.0 | s -> Perfbench_kit.Sample.median s

(* Written once, at exit, by a traced run. *)
let span_report () = Perfbench_kit.Span.report recorder

let samples_report () =
  String.concat ""
    (List.filter_map
       (fun (name, r) ->
         match List.sort Float.compare !r with
         | [] -> None
         | sorted ->
           let n = List.length sorted in
           let at q = List.nth sorted (min (n - 1) (int_of_float (q *. float_of_int n))) in
           Some
             (Printf.sprintf "  %-16s %3d pass(es), median %.4f s, p25 %.4f, p75 %.4f\n"
                name n (Perfbench_kit.Sample.median sorted) (at 0.25) (at 0.75)))
       !registry)

(* Fuzzing the string parsers behind `rr-sim run` and `rr-sim sweep`:
   the fault DSL, --link-schedule, gateway and topology strings,
   --cross-traffic, the pool's chaos spec and the campaign cache's JSON
   reader, plus the binary trace reader behind `rr-sim trace export` and
   the run journal `sweep --resume` reads.
   Cases are built from each
   grammar's own tokens mixed with numeric edge tokens, so most of them
   are near misses of valid input. Every case must end in [Ok] or [Error], never in an
   exception; an [Ok] value holds only finite numbers and survives a
   round trip through the printer, where the parser has one. *)

let numbers =
  [
    "nan"; "inf"; "-inf"; "-0"; "1e300"; "1e-300"; string_of_int max_int; "";
    "0"; "1"; "2"; "3"; "-1"; "0.05"; "0.25"; "0.3"; "0.5"; "4"; "20";
    "400000"; "1e6"; "0x10";
  ]

let number =
  QCheck2.Gen.(
    oneof
      [
        oneofl numbers;
        map (Printf.sprintf "%g") (float_range (-5.0) 50.0);
        map string_of_int (int_range (-3) 30);
      ])

let joined sep parts = QCheck2.Gen.(map (String.concat sep) parts)

let fault_clause =
  let open QCheck2.Gen in
  let pair = joined "+" (list_repeat 2 number) in
  oneof
    [
      oneofl [ "drop"; "hold"; "reverse"; ""; "bogus"; "flap"; "jitter:" ];
      map (( ^ ) "jitter:") number;
      map (( ^ ) "asym:") number;
      map (( ^ ) "reorder:") (joined ":" (list_size (int_range 1 3) number));
      map (( ^ ) "flap:rand:") pair;
      map (( ^ ) "flap:") pair;
      map (( ^ ) "flap:")
        (map (String.concat "") (list_size (int_range 1 3) (map (( ^ ) "@") pair)));
      map (( ^ ) "fade:") (joined "+" (list_size (int_range 1 4) number));
      map (( ^ ) "handover:") (joined "+" (list_size (int_range 1 5) number));
    ]

let fault_spec = joined "," (QCheck2.Gen.list_size (QCheck2.Gen.int_range 1 4) fault_clause)

let timeline =
  let open QCheck2.Gen in
  let field = oneof [ number; return "-" ] in
  let step =
    map (( ^ ) "@") (joined "+" (list_size (int_range 1 4) field))
  in
  oneof
    [
      map (String.concat "") (list_size (int_range 0 4) step);
      map2 ( ^ ) (oneofl [ ""; " "; "x"; "@@"; "5+1" ]) step;
    ]

let sized kinds =
  let open QCheck2.Gen in
  let count = oneof [ number; map string_of_int small_signed_int ] in
  oneof
    [
      oneofl kinds;
      map2 (fun kind n -> kind ^ ":" ^ n) (oneofl kinds) count;
      map2 (fun kind parts -> kind ^ ":" ^ parts) (oneofl kinds)
        (joined ":" (list_size (int_range 2 3) count));
    ]

let gateway = sized [ "droptail"; "red"; "RED"; " droptail "; "fifo"; "" ]

(* Plus the edges of the HOPS and PODS caps, and a count far past them. *)
let topology =
  let near_misses =
    sized [ "dumbbell"; "parking-lot"; "fat-tree"; "Fat-Tree"; "ring"; "" ]
  in
  QCheck2.Gen.(
    oneof
      [
        near_misses;
        map2
          (fun kind n -> kind ^ ":" ^ n)
          (oneofl [ "parking-lot"; "fat-tree" ])
          (oneofl [ "63"; "64"; "65"; "4096" ]);
      ])

let cross =
  let open QCheck2.Gen in
  joined ":"
    (list_size (int_range 1 3)
       (oneof [ number; oneofl [ "reverse"; "1000"; "40"; "0"; "-8" ] ]))

(* Chaos specs: near misses built from the grammar's tokens and the
   edge numbers, and specs rendered from known clauses, each an action
   over (job, filter) targets, whose plan the first matching target
   decides. *)
let chaos_noise =
  let open QCheck2.Gen in
  let target =
    map2 ( ^ ) number (oneof [ return ""; return "*"; map (( ^ ) "@") number ])
  in
  let action =
    oneofl [ "crash"; "hang"; "trunc"; "truncate"; " HANG "; "bogus"; "" ]
  in
  let clause =
    map2 (fun action targets -> action ^ ":" ^ targets) action
      (joined "," (list_size (int_range 1 3) target))
  in
  joined ";" (list_size (int_range 0 4) (oneof [ clause; number ]))

let chaos_clauses =
  let open QCheck2.Gen in
  let action =
    oneofl
      Campaign.Pool.[ ("crash", Crash); ("hang", Hang); ("trunc", Truncate) ]
  in
  let filter = oneofl [ ""; "*"; "@1"; "@2"; "@3"; "@4" ] in
  list_size (int_range 1 4)
    (pair action (list_size (int_range 1 3) (pair (int_range 0 7) filter)))

let render_chaos clauses =
  String.concat ";"
    (List.map
       (fun ((name, _), targets) ->
         name ^ ":"
         ^ String.concat ","
             (List.map (fun (job, filter) -> string_of_int job ^ filter) targets))
       clauses)

let chaos_expected clauses ~index ~attempt =
  let hit (job, filter) =
    job = index
    && (filter = "*"
       || filter = "@" ^ string_of_int attempt
       || (filter = "" && attempt = 1))
  in
  List.find_map
    (fun ((_, action), targets) ->
      if List.exists hit targets then Some action else None)
    clauses

let chaos_spec =
  let open QCheck2 in
  Test.make ~name:"chaos spec" ~count:10_000
    ~print:(fun (text, _) -> Printf.sprintf "%S" text)
    Gen.(
      oneof
        [
          map (fun text -> (text, None)) chaos_noise;
          map (fun clauses -> (render_chaos clauses, Some clauses)) chaos_clauses;
        ])
    (fun (text, clauses) ->
      match (Campaign.Pool.chaos_of_string text, clauses) with
      | exception e ->
        Test.fail_reportf "%S raised %s" text (Printexc.to_string e)
      | _, None -> true
      | Error message, Some _ -> Test.fail_reportf "%S refused: %s" text message
      | Ok plan, Some clauses ->
        List.for_all
          (fun (index, attempt) ->
            plan ~index ~attempt = chaos_expected clauses ~index ~attempt)
          (List.concat_map
             (fun index -> List.map (fun attempt -> (index, attempt)) [ 1; 2; 3 ])
             [ 0; 1; 2; 3; 4; 5 ]))

(* Cache JSON: trees of finite values, and cache entries rendered from
   random results, printed and then mutated: cut short, a byte dropped,
   a token spliced in or a number replaced. *)
let json_float =
  QCheck2.Gen.(
    oneof
      [
        oneofl
          [
            0.0; -0.0; 0.1; -1.0; 1e15; 1e15 -. 1.0; 0x1p53; 4.7e18; 1e300;
            5e-324; Float.max_float;
          ];
        float_range (-1e6) 1e6;
        map float_of_int int;
        map (fun f -> if Float.is_finite f then f else 0.0) float;
      ])

let json_string =
  QCheck2.Gen.(
    oneof
      [
        oneofl [ ""; "\""; "\\"; "\n\t\r"; "\000\031"; "\xe2\x82\xac"; "drops" ];
        string_size ~gen:char (int_range 0 8);
      ])

let json_tree =
  let open QCheck2.Gen in
  let open Campaign.Json in
  let leaf =
    oneof
      [
        return Null;
        map (fun b -> Bool b) bool;
        map (fun f -> Num f) json_float;
        map (fun s -> Str s) json_string;
      ]
  in
  sized_size (int_range 0 24)
  @@ fix (fun tree size ->
         if size = 0 then leaf
         else
           let some gen = list_size (int_range 0 4) gen in
           oneof
             [
               leaf;
               map (fun items -> List items) (some (tree (size / 4)));
               map
                 (fun fields -> Obj fields)
                 (some (pair json_string (tree (size / 4))));
             ])

let cache_entry =
  let open QCheck2.Gen in
  let count = int_range 0 1_000_000 and rate = float_range 0.0 1e7 in
  let flow =
    map3
      (fun flow goodput_bps (drops, timeouts, (retransmits, fast_retransmits)) ->
        {
          Campaign.Job.flow;
          goodput_bps;
          drops;
          timeouts;
          retransmits;
          fast_retransmits;
        })
      (int_range 0 3) rate
      (triple count count (pair count count))
  in
  map3
    (fun flow_metrics (aggregate_goodput_bps, jain)
         (audit_checks, audit_violations) ->
      Campaign.Job.result_to_json
        {
          Campaign.Job.job = Campaign.Job.default;
          flow_metrics;
          aggregate_goodput_bps;
          jain;
          audit_checks;
          audit_violations;
        })
    (list_size (int_range 0 3) flow)
    (pair rate (float_range 0.0 1.0))
    (pair count count)

let mutated text =
  let open QCheck2.Gen in
  let token =
    oneofl
      [
        "1e999"; "-1"; "4.7e18"; "9007199254740993"; "nan"; "-0"; "0x10"; "1e";
        "-"; "\""; "\\u12"; "{"; "}"; "["; "]"; ","; ":"; "null"; "tru";
      ]
  in
  let n = String.length text in
  let before at = String.sub text 0 at
  and after at = String.sub text at (n - at) in
  let number_char c = String.contains "0123456789-+.eE" c in
  let rec number_at i =
    if i >= n || number_char text.[i] then i else number_at (i + 1)
  in
  let rec number_end i =
    if i < n && number_char text.[i] then number_end (i + 1) else i
  in
  int_range 0 n >>= fun at ->
  oneof
    [
      return (before at);
      return (if at < n then before at ^ after (at + 1) else text);
      map (fun t -> before at ^ t ^ after at) token;
      (let start = number_at at in
       map (fun t -> before start ^ t ^ after (number_end start)) token);
    ]

let cache_document =
  let open QCheck2.Gen in
  let printed = oneofl Campaign.Json.[ to_string; pretty ] in
  let document tree = map2 (fun print v -> print v) printed tree in
  oneof
    [
      document json_tree;
      document cache_entry;
      document json_tree >>= mutated;
      document cache_entry >>= mutated;
    ]

(* What a decoded cache entry holds is a measurement: finite, and no
   count or goodput below zero. *)
let sane_result (r : Campaign.Job.result) =
  let count n = n >= 0 and rate g = Float.is_finite g && g >= 0.0 in
  List.for_all
    (fun (m : Campaign.Job.flow_metrics) ->
      count m.flow && rate m.goodput_bps && count m.drops && count m.timeouts
      && count m.retransmits && count m.fast_retransmits)
    r.flow_metrics
  && rate r.aggregate_goodput_bps && Float.is_finite r.jain
  && count r.audit_checks && count r.audit_violations

let json_round_trip =
  QCheck2.Test.make ~name:"json round trip" ~count:10_000
    ~print:Campaign.Json.to_string json_tree (fun v ->
      List.for_all
        (fun print -> Campaign.Json.of_string (print v) = Ok v)
        Campaign.Json.[ to_string; pretty ])

let finite = List.for_all Float.is_finite

let spec_floats (spec : Faults.Spec.t) =
  let opt = Option.to_list in
  (match spec.flaps with
  | Some (Periodic { period; down_for }) -> [ period; down_for ]
  | Some (Random { mean_up; mean_down }) -> [ mean_up; mean_down ]
  | Some (Explicit pairs) -> List.concat_map (fun (d, u) -> [ d; u ]) pairs
  | None -> [])
  @ (match spec.reorder with Some r -> [ r.prob; r.max_extra ] | None -> [])
  @ opt spec.jitter
  @ (match spec.fade with
    | Some f -> f.fade_period :: f.fade_levels
    | None -> [])
  @ (match spec.handover with
    | Some h -> h.ho_period :: h.ho_gap :: h.ho_levels
    | None -> [])
  @ opt spec.asym

let timeline_floats t =
  List.concat_map
    (fun { Faults.Timeline.at; rate; delay } ->
      at :: (Option.to_list rate @ Option.to_list delay))
    (Faults.Timeline.steps t)

(* [parse] must return; an [Ok] value must satisfy [ok]. *)
let never_raises ~name gen ~parse ~ok =
  QCheck2.Test.make ~name ~count:10_000 ~print:(Printf.sprintf "%S") gen
    (fun text ->
      match parse text with
      | Ok value -> ok value
      | Error _ -> true
      | exception e ->
        QCheck2.Test.fail_reportf "%S raised %s" text (Printexc.to_string e))

let round_trips parse print value = parse (print value) = Ok value

(* Binary traces for [rr-sim trace export]: random bytes after the
   magic, and a short recorded trace cut short, or with one byte
   dropped, flipped or spliced in. Export must end in [()] or
   [Trace.Corrupt]. *)

let magic = "RRTB\x01"

(* [record write] is the bytes [write] puts on a fresh channel. *)
let record write =
  let path = Filename.temp_file "rr_fuzz" ".rrtb" in
  Out_channel.with_open_bin path write;
  let bytes = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  bytes

(* [sample trace] keeps, after the magic, every string definition
   (tag 13: later records refer to them) and the first two records of
   every other tag, so each record kind fits in a few hundred bytes. *)
let sample trace =
  let kept = Buffer.create 1024 and seen = Array.make 256 0 in
  Buffer.add_string kept magic;
  let rec varint pos shift acc =
    let b = Char.code trace.[pos] in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 <> 0 then varint (pos + 1) (shift + 7) acc else (pos + 1, acc)
  in
  let rec from pos =
    if pos < String.length trace then begin
      let body, len = varint pos 0 0 in
      let tag = Char.code trace.[body] in
      if tag = 13 || seen.(tag) < 2 then begin
        seen.(tag) <- seen.(tag) + 1;
        Buffer.add_string kept (String.sub trace pos (body + len - pos))
      end;
      from (body + len)
    end
  in
  from (String.length magic);
  Buffer.contents kept

(* Five seconds of two faulted, lossy flows under a handover and a
   delay step, which write every record kind, sampled. *)
let recorded_trace =
  lazy
    (let faults =
       Result.get_ok
         (Faults.Spec.of_string "flap:0.8+0.3,drop,reorder:0.2,handover:1+0.2")
     in
     sample
       (record (fun out ->
            ignore
              (Experiments.Scenario.run
                 (Experiments.Scenario.make
                    ~topology:
                      (Experiments.Scenario.dumbbell
                         (Net.Dumbbell.paper_config ~flows:2))
                    ~flows:
                      Experiments.Scenario.
                        [ flow Core.Variant.Rr; flow Core.Variant.Rr ]
                    ~params:{ Tcp.Params.default with rwnd = 32 }
                    ~seed:7L ~duration:5.0 ~uniform_loss:0.05 ~faults
                    ~link_schedule:
                      (Result.get_ok (Faults.Timeline.of_string "@0.5+-+0.15"))
                    ~trace_out:out ~trace_format:`Binary ())
                : Experiments.Scenario.t))))

(* [mutations text] are [text] cut short, or with one byte dropped,
   flipped or spliced in. *)
let mutations text =
  let open QCheck2.Gen in
  let n = String.length text in
  let at = int_bound (n - 1) in
  let edit i inserted skip =
    String.sub text 0 i ^ inserted ^ String.sub text (i + skip) (n - i - skip)
  in
  [
    map (fun i -> String.sub text 0 i) at;
    map (fun i -> edit i "" 1) at;
    map2
      (fun i c ->
        let mask = 1 + (Char.code c mod 255) in
        let flipped = Char.chr (Char.code text.[i] lxor mask) in
        edit i (String.make 1 flipped) 1)
      at char;
    map2 (fun i c -> edit i (String.make 1 c) 0) at char;
  ]

let binary_trace =
  let open QCheck2.Gen in
  oneof
    [
      map (( ^ ) magic) (string_size (int_range 0 32));
      delay (fun () -> oneof (mutations (Lazy.force recorded_trace)));
    ]

(* Every file-reading case goes through one file, removed at exit. *)
let fuzz_path =
  lazy
    (let path = Filename.temp_file "rr_fuzz" "" in
     at_exit (fun () -> Sys.remove path);
     path)

let export bytes =
  let path = Lazy.force fuzz_path in
  Out_channel.with_open_bin path (fun oc -> output_string oc bytes);
  In_channel.with_open_bin path (fun input ->
      Out_channel.with_open_bin Filename.null (fun output ->
          match Audit.Trace.export ~input ~output with
          | () -> Ok ()
          | exception Audit.Trace.Corrupt reason -> Error reason))

(* Journals for [Campaign.Journal.load], which [sweep --resume] reads:
   random journals built from the records' own tokens and JSON near
   misses, and a recorded journal cut short, with one byte dropped,
   flipped or spliced in, or with a line spliced in or repeated. Load
   must end in [Ok] or [Error]; an [Ok] snapshot may name only digests
   that a [job_settled] or [job_failed] line names, and only a sweep
   that a [sweep_start] line names. *)

let journal_value =
  QCheck2.Gen.oneofl
    [
      {|"sweep_start"|}; {|"job_settled"|}; {|"job_failed"|}; {|"job_retry"|};
      {|"sweep_resume"|}; {|"sweep_complete"|}; {|"d1"|}; {|"d2"|}; {|""|};
      {|"rr-sim-journal/1"|}; {|"a\"b"|}; {|"\u00e9"|}; {|"\"|}; {|"x|};
      "null"; "true"; "1"; "-0"; "1e999"; "[]"; "{}"; {|["d1"]|}; "tru"; "";
    ]

let journal_line =
  let open QCheck2.Gen in
  let field =
    map2
      (Printf.sprintf "%S:%s")
      (oneofl [ "ev"; "digest"; "failure"; "sweep"; "t"; "total"; "" ])
      journal_value
  in
  oneof
    [
      map (fun fields -> "{" ^ String.concat "," fields ^ "}")
        (list_size (int_range 0 4) field);
      string_size (int_range 0 16);
    ]

(* A journal as a sweep writes it, interrupted and resumed once, with
   its wall-clock stamps pinned so every run fuzzes the same bytes. *)
let recorded_journal =
  lazy
    (let path = Filename.temp_file "rr_fuzz" ".jsonl" in
     let digest n = Digest.to_hex (Digest.string (string_of_int n)) in
     let j = Campaign.Journal.start ~path ~sweep:(digest 0) ~total:3 in
     Campaign.Journal.settled j ~digest:(digest 1);
     Campaign.Journal.retry j ~digest:(digest 2) ~attempt:1
       ~failure:"crashed: killed by SIGKILL";
     Campaign.Journal.failed j ~digest:(digest 2) ~failure:"timed out after 5s";
     Campaign.Journal.finish j ~settled:1 ~failed:1 ~interrupted:true;
     Campaign.Journal.close j;
     let j, _ =
       Result.get_ok (Campaign.Journal.resume ~path ~sweep:(digest 0))
     in
     Campaign.Journal.settled j ~digest:(digest 2);
     Campaign.Journal.settled j ~digest:(digest 3);
     Campaign.Journal.finish j ~settled:3 ~failed:0 ~interrupted:false;
     Campaign.Journal.close j;
     let text = In_channel.with_open_bin path In_channel.input_all in
     Sys.remove path;
     String.split_on_char '\n' text
     |> List.map (fun line ->
            match String.index_opt line ',' with
            | Some i when String.starts_with ~prefix:{|{"t":|} line ->
              {|{"t":0.5|} ^ String.sub line i (String.length line - i)
            | Some _ | None -> line)
     |> String.concat "\n")

let journal =
  let open QCheck2.Gen in
  let mutated =
    delay (fun () ->
        let text = Lazy.force recorded_journal in
        let lines = String.split_on_char '\n' text in
        let at_line = int_bound (List.length lines - 1) in
        let insert_line k line =
          String.concat "\n"
            (List.concat
               (List.mapi (fun i l -> if i = k then [ line; l ] else [ l ]) lines))
        in
        oneof
          (mutations text
          @ [
              map2 insert_line at_line journal_line;
              map2 (fun k j -> insert_line k (List.nth lines j)) at_line at_line;
            ]))
  in
  oneof
    [
      map (String.concat "\n") (list_size (int_range 0 8) journal_line);
      mutated;
    ]

(* The [what] strings that lines recording an [ev] in [evs] name. *)
let named ~evs ~what text =
  List.filter_map
    (fun line ->
      match Campaign.Json.of_string line with
      | Ok json -> (
        let str name =
          Option.bind (Campaign.Json.member name json) Campaign.Json.to_str
        in
        match str "ev" with
        | Some ev when List.mem ev evs -> str what
        | Some _ | None -> None)
      | Error _ -> None)
    (String.split_on_char '\n' text)

let journal_load =
  QCheck2.Test.make ~name:"journal" ~count:10_000 ~print:(Printf.sprintf "%S")
    journal (fun text ->
      let path = Lazy.force fuzz_path in
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      match Campaign.Journal.load ~path with
      | Ok { Campaign.Journal.sweep; settled; failed } ->
        let jobs =
          named ~evs:[ "job_settled"; "job_failed" ] ~what:"digest" text
        in
        List.mem sweep (named ~evs:[ "sweep_start" ] ~what:"sweep" text)
        && List.for_all
             (fun digest -> List.mem digest jobs)
             (settled @ List.map fst failed)
      | Error _ -> true
      | exception e ->
        QCheck2.Test.fail_reportf "%S raised %s" text (Printexc.to_string e))

let properties =
  [
    never_raises ~name:"fault spec" fault_spec ~parse:Faults.Spec.of_string
      ~ok:(fun spec ->
        finite (spec_floats spec)
        && round_trips Faults.Spec.of_string Faults.Spec.to_string spec);
    never_raises ~name:"link schedule" timeline ~parse:Faults.Timeline.of_string
      ~ok:(fun t ->
        finite (timeline_floats t)
        && round_trips Faults.Timeline.of_string Faults.Timeline.to_string t);
    never_raises ~name:"gateway" gateway ~parse:Campaign.Job.gateway_of_string
      ~ok:
        (round_trips Campaign.Job.gateway_of_string Campaign.Job.gateway_name);
    never_raises ~name:"topology" topology
      ~parse:Campaign.Job.topology_of_string
      ~ok:
        (round_trips Campaign.Job.topology_of_string Campaign.Job.topology_name);
    never_raises ~name:"cross traffic" cross
      ~parse:(Experiments.Scenario.cross_of_string ~until:20.0)
      ~ok:(fun (c : Experiments.Scenario.cross) ->
        Workload.Cbr.advances ~rate_bps:c.rate_bps ~packet_bytes:c.packet_bytes
          ~until:20.0);
    chaos_spec;
    never_raises ~name:"cache json" cache_document
      ~parse:(fun text ->
        Result.bind (Campaign.Json.of_string text)
          (Campaign.Job.result_of_json Campaign.Job.default))
      ~ok:sane_result;
    json_round_trip;
    never_raises ~name:"binary trace" binary_trace ~parse:export
      ~ok:(fun () -> true);
    journal_load;
  ]

let suite =
  [ ("parsers", List.map (Qcheck_seed.to_alcotest ~long:false) properties) ]

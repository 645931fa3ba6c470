(* Fuzzing the string parsers behind `rr-sim run` and `rr-sim sweep`:
   the fault DSL, --link-schedule, gateway and topology strings and
   --cross-traffic. Cases are built from each grammar's own tokens
   mixed with numeric edge tokens, so most of them are near misses of
   valid input. Every case must end in [Ok] or [Error], never in an
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

let topology =
  sized [ "dumbbell"; "parking-lot"; "fat-tree"; "Fat-Tree"; "ring"; "" ]

let cross =
  let open QCheck2.Gen in
  joined ":"
    (list_size (int_range 1 3)
       (oneof [ number; oneofl [ "reverse"; "1000"; "40"; "0"; "-8" ] ]))

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
  ]

let suite =
  [ ("parsers", List.map (QCheck_alcotest.to_alcotest ~long:false) properties) ]

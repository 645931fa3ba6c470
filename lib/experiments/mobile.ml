type outcome = (string * int * Faults.Spec.t) Variant_table.t

let duration = 30.0

(* The hostile conditions, as spec-DSL strings so the experiment
   exercises exactly what `rr-sim run --faults` would: a four-level
   fading cycle (full, half, quarter rates) and a cellular handover
   (400 ms dark gap, alternate full-/half-rate cells) every 5 s. *)
let fade_spec = "fade:2+1+0.5+0.25"

let handover_spec = "handover:5+0.4"

let spec_of s =
  match Faults.Spec.of_string s with
  | Ok spec -> spec
  | Error m -> invalid_arg ("Mobile: bad spec " ^ s ^ ": " ^ m)

let cell (_, buffer, faults) variant ~seed =
  let config =
    {
      (Net.Dumbbell.paper_config ~flows:1) with
      gateway = Net.Dumbbell.Droptail { capacity = buffer };
    }
  in
  let t =
    Scenario.run
      (Scenario.make
         ~topology:(Scenario.dumbbell config)
         ~flows:[ Scenario.flow variant ]
         ~params:{ Tcp.Params.default with rwnd = 64 }
         ~seed ~duration ~faults ())
  in
  [|
    Scenario.goodput_bps t ~flow:0 ~t0:2.0 ~t1:duration;
    float_of_int (Scenario.counters t ~flow:0).Tcp.Counters.timeouts;
    float_of_int (Scenario.fault_drops t);
  |]

let run () =
  let fade = spec_of fade_spec and handover = spec_of handover_spec in
  Variant_table.run ~variants:Core.Variant.[ Newreno; Sack; Rr ]
    ~seeds:[ 7L; 29L ]
    ~rows:
      [
        ("clean, paper buffer", 8, Faults.Spec.none);
        ("fading, paper buffer", 8, fade);
        ("handover, paper buffer", 8, handover);
        ("fading, deep buffer", 64, fade);
        ("handover, deep buffer", 64, handover);
      ]
    cell

let report outcome =
  Printf.sprintf
    "Mobile-channel robustness: time-varying trunk rate over the dumbbell\n\
     fading = rate cycle 1x/0.5x/0.25x every 2 s (%s)\n\
     handover = 400 ms dark gap + burst loss + cell-rate step every 5 s (%s)\n\
     deep buffer = 64-packet gateway (bufferbloat regime; paper's is 8)\n\n\
     %s"
    fade_spec handover_spec
    (Variant_table.render
       ~keys:
         [
           ( "Condition (buffer)",
             fun ((label, buffer, _), _) ->
               Printf.sprintf "%s (%d)" label buffer );
         ]
       ~columns:
         Variant_table.[ goodput; count "timeouts" 1; count "fault drops" 2 ]
       outcome)

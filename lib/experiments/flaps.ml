type outcome = (string * Faults.Spec.t) Variant_table.t

let duration = 30.0

let period = 5.0

let down_for = 0.3

let cell (_, faults) variant ~seed =
  let t =
    Scenario.run
      (Scenario.make
         ~topology:(Scenario.dumbbell (Net.Dumbbell.paper_config ~flows:1))
         ~flows:[ Scenario.flow variant ] ~seed ~duration ~faults ())
  in
  [|
    Scenario.goodput_bps t ~flow:0 ~t0:2.0 ~t1:duration;
    float_of_int (Scenario.counters t ~flow:0).Tcp.Counters.timeouts;
    float_of_int (Scenario.fault_drops t);
  |]

let run ?(variants = Core.Variant.[ Newreno; Sack; Rr ]) () =
  let flaps policy =
    {
      Faults.Spec.none with
      Faults.Spec.flaps = Some (Faults.Spec.Periodic { period; down_for });
      flap_policy = policy;
    }
  in
  let rows =
    [
      ("none (baseline)", Faults.Spec.none);
      ("hold (handoff)", flaps `Hold_queued);
      ("drop (outage)", flaps `Drop_queued);
    ]
  in
  Variant_table.run ~rows ~variants ~seeds:[ 7L; 29L ] cell

let report outcome =
  Printf.sprintf
    "Link-flap robustness: %.0f ms outage of both trunk directions every \
     %.0f s\n\
     hold keeps the bottleneck buffer across the outage; drop discards it\n\n\
     %s"
    (1000.0 *. down_for) period
    (Variant_table.render
       ~keys:[ ("Flap policy", fun ((label, _), _) -> label) ]
       ~columns:
         Variant_table.[ goodput; count "timeouts" 1; count "fault drops" 2 ]
       outcome)

type outcome = {
  period : float;
  down_for : float;
  table : (string * Faults.Spec.t) Variant_table.t;
}

let duration = 30.0

let scenario (_, faults) variant ~seed =
  Scenario.make
    ~topology:(Scenario.dumbbell (Net.Dumbbell.paper_config ~flows:1))
    ~flows:[ Scenario.flow variant ] ~seed ~duration ~faults ()

let measure _ t =
  [|
    Scenario.goodput_bps t ~flow:0 ~t0:2.0 ~t1:duration;
    float_of_int (Scenario.counters t ~flow:0).Tcp.Counters.timeouts;
    float_of_int (Scenario.fault_drops t);
  |]

let run ?(period = 5.0) ?(down_for = 0.3)
    ?(variants = Core.Variant.[ Newreno; Sack; Rr ]) ?(seeds = [ 7L; 29L ]) ()
    =
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
  {
    period;
    down_for;
    table = Variant_table.run ~rows ~variants ~seeds ~scenario ~measure;
  }

let report outcome =
  Printf.sprintf
    "Link-flap robustness: %.0f ms outage of both trunk directions every \
     %.0f s\n\
     hold keeps the bottleneck buffer across the outage; drop discards it\n\n\
     %s"
    (1000.0 *. outcome.down_for) outcome.period
    (Variant_table.render
       ~keys:[ ("Flap policy", fun ((label, _), _) -> label) ]
       ~columns:
         Variant_table.[ goodput; count "timeouts" 1; count "fault drops" 2 ]
       outcome.table)

type outcome = float Variant_table.t

let duration = 20.0

let cell prob variant ~seed =
  let faults =
    if prob = 0.0 then Faults.Spec.none
    else
      {
        Faults.Spec.none with
        Faults.Spec.reorder =
          Some
            {
              Faults.Spec.prob;
              max_extra = Faults.Spec.default_reorder_extra;
            };
      }
  in
  let t =
    Scenario.run
      (Scenario.make
         ~topology:(Scenario.dumbbell (Net.Dumbbell.paper_config ~flows:1))
         ~flows:[ Scenario.flow variant ] ~seed ~duration ~faults ())
  in
  let counters = Scenario.counters t ~flow:0 in
  [|
    Scenario.goodput_bps t ~flow:0 ~t0:2.0 ~t1:duration;
    float_of_int counters.Tcp.Counters.fast_retransmits;
    float_of_int counters.Tcp.Counters.timeouts;
  |]

let run () =
  Variant_table.run ~rows:[ 0.0; 0.02; 0.05; 0.1 ]
    ~variants:Core.Variant.[ Newreno; Sack; Rr ] ~seeds:[ 5L; 23L ] cell

let report outcome =
  Printf.sprintf
    "Packet reordering robustness (bounded extra delay at the bottleneck, no \
     injected loss)\n\
     recoveries beyond the 0%% row are spurious: reordered segments arrive \
     within %.0f ms\n\n\
     %s"
    (1000.0 *. Faults.Spec.default_reorder_extra)
    (Variant_table.render
       ~keys:
         [
           ( "Reorder prob",
             fun (prob, _) -> Printf.sprintf "%.0f%%" (100.0 *. prob) );
         ]
       ~columns:
         Variant_table.[ goodput; count "fast rtx" 1; count "timeouts" 2 ]
       outcome)

type outcome = bool Variant_table.t

let duration = 20.0

let startup = 5.0

(* ssthresh 28 = the path's pipe capacity (BDP ~21 + 8-packet buffer):
   plain slow start overshoots to 2x that before the loss signal
   returns; smooth-start approaches it at half rate. *)
let params =
  { Tcp.Params.default with initial_ssthresh = 28.0; rwnd = 10_000 }

let cell smooth variant ~seed =
  let t =
    Scenario.run
      (Scenario.make
         ~topology:(Scenario.dumbbell (Net.Dumbbell.paper_config ~flows:1))
         ~flows:[ Scenario.flow variant ]
         ~params:{ params with smooth_start = smooth }
         ~seed ~duration ())
  in
  let startup_drops =
    List.length
      (List.filter
         (fun { Scenario.time; payload; _ } ->
           (match payload with Scenario.Data _ -> true | Scenario.Ack -> false)
           && time <= startup)
         t.Scenario.drop_log)
  in
  [|
    Scenario.goodput_bps t ~flow:0 ~t0:0.0 ~t1:duration;
    float_of_int startup_drops;
    float_of_int (Scenario.counters t ~flow:0).Tcp.Counters.timeouts;
  |]

let run ?(variants = Core.Variant.[ Newreno; Rr ]) ?(seed = 13L) () =
  Variant_table.run ~rows:[ false; true ] ~variants ~seeds:[ seed ] cell

let report outcome =
  Printf.sprintf
    "Smooth-Start extension (paper ref [21]): slow-start overshoot control\n\
     expected shape: smooth-start sheds start-up losses without hurting\n\
     long-run goodput\n\n\
     %s"
    (Variant_table.render_long
       ~keys:
         [
           ("variant", fun (_, variant) -> Core.Variant.name variant);
           ("smooth-start", fun (smooth, _) -> if smooth then "on" else "off");
         ]
       ~columns:
         Variant_table.
           [ integer "startup drops" 1; integer "timeouts" 2; goodput ]
       outcome)

type row = {
  variant : Core.Variant.t;
  smooth : bool;
  startup_drops : int;
  timeouts : int;
  goodput_bps : float;
}

type outcome = { rows : row list }

let duration = 20.0

let startup = 5.0

(* ssthresh 28 = the path's pipe capacity (BDP ~21 + 8-packet buffer):
   plain slow start overshoots to 2x that before the loss signal
   returns; smooth-start approaches it at half rate. *)
let params =
  { Tcp.Params.default with initial_ssthresh = 28.0; rwnd = 10_000 }

let run_one ~seed ~smooth variant =
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
  {
    variant;
    smooth;
    startup_drops;
    timeouts = (Scenario.counters t ~flow:0).Tcp.Counters.timeouts;
    goodput_bps = Scenario.goodput_bps t ~flow:0 ~t0:0.0 ~t1:duration;
  }

let run ?(variants = Core.Variant.[ Newreno; Rr ]) ?(seed = 13L) () =
  let rows =
    List.concat_map
      (fun variant ->
        [ run_one ~seed ~smooth:false variant; run_one ~seed ~smooth:true variant ])
      variants
  in
  { rows }

let report outcome =
  let header =
    [ "variant"; "smooth-start"; "startup drops"; "timeouts"; "goodput (Kbps)" ]
  in
  let rows =
    List.map
      (fun row ->
        [
          Core.Variant.name row.variant;
          (if row.smooth then "on" else "off");
          string_of_int row.startup_drops;
          string_of_int row.timeouts;
          Printf.sprintf "%.1f" (row.goodput_bps /. 1000.0);
        ])
      outcome.rows
  in
  Printf.sprintf
    "Smooth-Start extension (paper ref [21]): slow-start overshoot control\n\
     expected shape: smooth-start sheds start-up losses without hurting\n\
     long-run goodput\n\n\
     %s"
    (Stats.Text_table.render ~header rows)

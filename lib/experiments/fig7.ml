type point = {
  loss_rate : float;
  model_window : float;
  model_window_paper_c : float;
  padhye_window : float;
  measured : (Core.Variant.t * float * int) list;
}

type outcome = { rtt : float; c_model : float; points : point list }

let paper_loss_rates =
  [ 0.001; 0.002; 0.005; 0.01; 0.02; 0.03; 0.05; 0.07; 0.1 ]

let paper_variants = Core.Variant.[ Sack; Rr ]

(* Generous buffer so queue overflows do not add to the injected
   uniform losses; the paper's §4 losses are purely artificial. *)
let config =
  {
    (Net.Dumbbell.paper_config ~flows:1) with
    gateway = Net.Dumbbell.Droptail { capacity = 25 };
  }

let params = { Tcp.Params.default with rwnd = 20 }

let warmup = 5.0

let rtt =
  Scenario.rtt_estimate config ~mss:params.Tcp.Params.mss
    ~ack_size:params.Tcp.Params.ack_size

let measure ?(delayed_ack = false) ~params ~seeds ~duration ~loss_rate variant =
  if seeds = [] then invalid_arg "needs at least one seed";
  if not (Float.is_finite duration && duration >= 0.0) then
    invalid_arg (Printf.sprintf "--duration %g: must be finite and >= 0" duration);
  if not (duration > warmup) then
    invalid_arg
      (Printf.sprintf "--duration %g: must exceed the %g s warm-up" duration
         warmup);
  let runs =
    List.map
      (fun seed ->
        let t =
          Scenario.run
            (Scenario.make ~topology:(Scenario.dumbbell config)
               ~flows:[ Scenario.flow variant ] ~params ~seed ~duration
               ~uniform_loss:loss_rate ~delayed_ack ())
        in
        ( Scenario.goodput_bps t ~flow:0 ~t0:warmup ~t1:duration,
          (Scenario.counters t ~flow:0).Tcp.Counters.timeouts ))
      seeds
  in
  let bw =
    List.fold_left ( +. ) 0.0 (List.map fst runs)
    /. float_of_int (List.length seeds)
  in
  ( bw *. rtt /. float_of_int (8 * params.Tcp.Params.mss),
    List.fold_left ( + ) 0 (List.map snd runs) / List.length seeds )

let run ?(loss_rates = paper_loss_rates) ?(variants = paper_variants)
    ?(seeds = [ 3L; 17L; 29L; 101L; 2048L ]) ?(duration = 100.0)
    ?(delayed_ack = false) () =
  let c_model =
    if delayed_ack then Model.Mathis.c_delayed_ack
    else Model.Mathis.c_ack_every_packet
  in
  let b_model = if delayed_ack then 2 else 1 in
  let points =
    List.map
      (fun loss_rate ->
        {
          loss_rate;
          model_window = Model.Mathis.window ~c:c_model ~loss_rate;
          model_window_paper_c =
            Model.Mathis.window ~c:Model.Mathis.c_paper ~loss_rate;
          padhye_window =
            Model.Padhye.window ~rtt ~rto:params.Tcp.Params.min_rto ~b:b_model
              ~loss_rate;
          measured =
            List.map
              (fun variant ->
                let window, timeouts =
                  measure ~delayed_ack ~params ~seeds ~duration ~loss_rate
                    variant
                in
                (variant, window, timeouts))
              variants;
        })
      loss_rates
  in
  { rtt; c_model; points }

let variant_names outcome =
  match outcome.points with
  | [] -> []
  | point :: _ -> List.map (fun (v, _, _) -> v) point.measured

let report outcome =
  let variants = variant_names outcome in
  let header =
    [
      "loss rate p";
      Printf.sprintf "C/sqrt(p) (C=%.2f)" outcome.c_model;
      "same, C=4";
      "PFTK";
    ]
    @ List.concat_map
        (fun v ->
          [ Core.Variant.name v ^ " window"; Core.Variant.name v ^ " timeouts" ])
        variants
  in
  let rows =
    List.map
      (fun point ->
        [
          Printf.sprintf "%.3f" point.loss_rate;
          Printf.sprintf "%.1f" point.model_window;
          Printf.sprintf "%.1f" point.model_window_paper_c;
          Printf.sprintf "%.1f" point.padhye_window;
        ]
        @ List.concat_map
            (fun (_, window, timeouts) ->
              [ Printf.sprintf "%.1f" window; string_of_int timeouts ])
            point.measured)
      outcome.points
  in
  Printf.sprintf
    "Figure 7 (fitness to the square-root model; RTT=%.3f s, MSS=1000 B)\n\
     paper shape: both variants track C/sqrt(p) at small p (capped by the\n\
     20-segment advertised window) and droop below it at large p as\n\
     timeouts appear; RR fits at least as well as SACK\n\n\
     %s"
    outcome.rtt
    (Stats.Text_table.render ~header rows)

let plot outcome =
  let variants = variant_names outcome in
  let glyphs = [ 's'; 'r'; 'n'; 't'; 'x' ] in
  let model_points =
    List.map
      (fun p ->
        ( 1.0 /. sqrt p.loss_rate,
          Float.min (float_of_int params.Tcp.Params.rwnd) p.model_window ))
      outcome.points
  in
  let measured_specs =
    List.mapi
      (fun i v ->
        let glyph = List.nth glyphs (i mod List.length glyphs) in
        let points =
          List.map
            (fun p ->
              let window =
                List.assoc v
                  (List.map (fun (v, w, _) -> (v, w)) p.measured)
              in
              (1.0 /. sqrt p.loss_rate, window))
            outcome.points
        in
        { Stats.Ascii_plot.label = Core.Variant.name v; glyph; points })
      variants
  in
  Stats.Ascii_plot.render ~width:64 ~height:18 ~x_label:"1/sqrt(p)"
    ~y_label:"window = BW*RTT/MSS"
    ({ Stats.Ascii_plot.label = "model bound (capped at rwnd)"; glyph = '*';
       points = model_points }
    :: measured_specs)

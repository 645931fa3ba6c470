type row = {
  variant : Core.Variant.t;
  model : string;
  predicted_window : float;
  measured_window : float;
  deviation : float;
  timeouts : int;
}

type point = { loss_rate : float; rows : row list }

type outcome = {
  rtt : float;
  rwnd : int;
  rrr_level : float;
  points : point list;
}

let default_variants =
  Core.Variant.[ Reno; Newreno; Sack; Rr; Relentless; Rrr ]

let default_loss_rates = [ 0.002; 0.005; 0.01; 0.03; 0.1 ]

let model_window variant ~rrr_level ~loss_rate ~rwnd =
  match variant with
  | Core.Variant.Relentless ->
    ("1/p", Model.Relentless.window_limited ~loss_rate ~rwnd)
  | Core.Variant.Rrr ->
    ( Printf.sprintf "rrr(%g)" rrr_level,
      Model.Rrr.window_limited ~level:rrr_level ~loss_rate ~rwnd )
  | Core.Variant.Tahoe | Core.Variant.Reno | Core.Variant.Newreno
  | Core.Variant.Sack | Core.Variant.Fack | Core.Variant.Vegas
  | Core.Variant.Rr ->
    ( "C/sqrt(p)",
      Model.Mathis.window_limited ~c:Model.Mathis.c_ack_every_packet
        ~loss_rate ~rwnd )

let run ?(variants = default_variants) ?(loss_rates = default_loss_rates)
    ?(seeds = [ 3L; 17L; 29L; 101L; 2048L ]) ?(duration = 100.0)
    ?(rrr_level = 0.5) () =
  let rwnd = 20 in
  let params = { Tcp.Params.default with rwnd; rrr_level } in
  let points =
    List.map
      (fun loss_rate ->
        let rows =
          List.map
            (fun variant ->
              let measured_window, timeouts =
                Fig7.measure ~params ~seeds ~duration ~loss_rate variant
              in
              let model, predicted_window =
                model_window variant ~rrr_level ~loss_rate ~rwnd
              in
              {
                variant;
                model;
                predicted_window;
                measured_window;
                deviation =
                  (measured_window -. predicted_window) /. predicted_window;
                timeouts;
              })
            variants
        in
        { loss_rate; rows })
      loss_rates
  in
  { rtt = Fig7.rtt; rwnd; rrr_level; points }

let deviation outcome ~variant ~loss_rate =
  List.find_map
    (fun point ->
      if point.loss_rate = loss_rate then
        List.find_map
          (fun row ->
            if row.variant = variant then Some row.deviation else None)
          point.rows
      else None)
    outcome.points

let beyond outcome ~tolerance =
  List.concat_map
    (fun point ->
      List.filter_map
        (fun row ->
          (* Written so that a NaN deviation is beyond any tolerance. *)
          if Float.abs row.deviation <= tolerance then None
          else
            Some
              (Printf.sprintf "%s at p=%g: %+.1f%%"
                 (Core.Variant.name row.variant)
                 point.loss_rate (100.0 *. row.deviation)))
        point.rows)
    outcome.points

let report outcome =
  let header =
    [ "loss rate p"; "variant"; "model"; "predicted"; "measured"; "dev"; "timeouts" ]
  in
  let rows =
    List.concat_map
      (fun point ->
        List.map
          (fun row ->
            [
              Printf.sprintf "%.3f" point.loss_rate;
              Core.Variant.name row.variant;
              row.model;
              Printf.sprintf "%.1f" row.predicted_window;
              Printf.sprintf "%.1f" row.measured_window;
              Printf.sprintf "%+.1f%%" (100.0 *. row.deviation);
              string_of_int row.timeouts;
            ])
          point.rows)
      outcome.points
  in
  Printf.sprintf
    "Model validation (clean dumbbell, RTT=%.3f s, MSS=1000 B, rwnd=%d)\n\
     each variant against its own steady-state model, capped at rwnd:\n\
     Reno family vs Mathis C/sqrt(p) (C=%.2f), Relentless vs the\n\
     arxiv 1102.3270 equilibrium 1/p, RRR (level %g) vs the generalised\n\
     AIMD mean sqrt((2-l)/(2*l*p)); deviation = (measured - model)/model\n\n\
     %s"
    outcome.rtt outcome.rwnd Model.Mathis.c_ack_every_packet outcome.rrr_level
    (Stats.Text_table.render ~header rows)

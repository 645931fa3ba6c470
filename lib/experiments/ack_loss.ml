type outcome = float Variant_table.t

let params = { Tcp.Params.default with initial_ssthresh = 16.0; rwnd = 20 }

let burst = List.init 4 (fun i -> { Net.Loss.flow = 0; seq = 33 + i; occurrence = 1 })

let measure_window = 4.0

let scenario ack_loss variant ~seed =
  Scenario.make
    ~topology:(Scenario.dumbbell (Net.Dumbbell.paper_config ~flows:1))
    ~flows:[ Scenario.flow variant ] ~params ~seed ~forced_drops:burst
    ~ack_loss ()

let measure _ t =
  let t0 =
    (* The first *data* drop (ACK drops also land in the log). *)
    let rec scan = function
      | [] -> failwith "Ack_loss: burst did not occur"
      | { Scenario.time; flow = 0; payload = Scenario.Data _ } :: _ -> time
      | _ :: rest -> scan rest
    in
    scan t.Scenario.drop_log
  in
  [|
    Scenario.goodput_bps t ~flow:0 ~t0 ~t1:(t0 +. measure_window);
    float_of_int (Scenario.counters t ~flow:0).Tcp.Counters.timeouts;
  |]

let run ?(rates = [ 0.0; 0.05; 0.1; 0.2; 0.3 ])
    ?(variants = Core.Variant.[ Newreno; Sack; Rr ])
    ?(seeds = [ 2L; 19L; 47L; 83L; 151L ]) () =
  Variant_table.run ~rows:rates ~variants ~seeds ~scenario ~measure

let report outcome =
  Printf.sprintf
    "ACK-loss robustness (4-loss burst recovery under reverse-path drops, §2.3)\n\
     paper shape: RR degrades gracefully and stays ahead of New-Reno;\n\
     SACK is the least ACK-sensitive\n\n\
     %s"
    (Variant_table.render
       ~keys:
         [
           ( "ACK loss rate",
             fun (rate, _) -> Printf.sprintf "%.0f%%" (100.0 *. rate) );
         ]
       ~columns:Variant_table.[ goodput; count "timeouts" 1 ]
       outcome)

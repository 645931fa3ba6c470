type outcome = float Variant_table.t

let drops = 4

let run ?(rates = [ 0.0; 0.05; 0.1; 0.2; 0.3 ])
    ?(seeds = [ 2L; 19L; 47L; 83L; 151L ]) () =
  Variant_table.run ~rows:rates ~variants:Core.Variant.[ Newreno; Sack; Rr ]
    ~seeds (fun ack_loss variant ~seed ->
      let m =
        Fig5.measure ~drops ~window:4.0
          (Scenario.run
             (Fig5.scenario ~ack_loss ~drops ~seed (Scenario.flow variant)))
      in
      [| m.throughput_bps; float_of_int m.timeouts |])

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

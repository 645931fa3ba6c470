type outcome = float Variant_table.t

let duration = 30.0

let flows = 2

let params = { Tcp.Params.default with rwnd = 20 }

(* The reverse trunk keeps the paper's tight 8-packet buffer: as the
   asym ratio grows, ACK serialization slows until the reverse queue
   overflows and the forward window loses its clock. *)
let config =
  {
    (Net.Dumbbell.paper_config ~flows) with
    reverse_capacity = 8;
  }

let faults_of_ratio ratio =
  if ratio <= 1.0 then Faults.Spec.none
  else { Faults.Spec.none with Faults.Spec.asym = Some ratio }

let cell ratio variant ~seed =
  let t =
    Scenario.run
      (Scenario.make
         ~topology:(Scenario.dumbbell config)
         ~flows:
           (List.init flows (fun flow ->
                {
                  (Scenario.flow variant) with
                  Scenario.start = 0.2 *. float_of_int flow;
                }))
         ~params ~seed ~duration ~faults:(faults_of_ratio ratio) ())
  in
  let goodput =
    Stats.Metrics.mean
      (List.init flows (fun flow ->
           Scenario.goodput_bps t ~flow ~t0:2.0 ~t1:duration))
  in
  let timeouts =
    List.fold_left
      (fun acc flow -> acc + (Scenario.counters t ~flow).Tcp.Counters.timeouts)
      0 (List.init flows Fun.id)
  in
  let ack_drops =
    List.length
      (List.filter
         (fun d -> d.Scenario.payload = Scenario.Ack)
         t.Scenario.drop_log)
  in
  [| goodput; float_of_int timeouts; float_of_int ack_drops |]

let run () =
  Variant_table.run ~rows:[ 1.0; 5.0; 10.0; 20.0; 50.0; 100.0; 200.0 ]
    ~variants:Core.Variant.[ Newreno; Sack; Rr ] ~seeds:[ 7L; 29L ] cell

let report outcome =
  Printf.sprintf
    "Asymmetric ACK channels: reverse trunk at 1/R of the forward rate\n\
     (asym:R spec clause; %d forward flows share the path, per-flow mean \
     goodput)\n\
     ACK congestion starves the self-clock long before the data path is \
     full\n\n\
     %s"
    flows
    (Variant_table.render
       ~keys:
         [ ("fwd:rev ratio", fun (ratio, _) -> Printf.sprintf "%.0f:1" ratio) ]
       ~columns:
         Variant_table.[ goodput; count "timeouts" 1; count "ACK drops" 2 ]
       outcome)

(* The paper-recovery part of the simulate workload: Table 5's
   twenty-flow Reno/RR mix and Figure 7's single-flow uniform-loss runs,
   through Experiments.Scenario.run. *)

open Experiments

let kind = "paper-recovery"

(* Digest of the first pass's outputs at the default seed. *)
let pinned = "429304cb2efa49fc3ef20613d93b90a4"

let phases_per_case = 4

let table5_horizon = 160.0

let fig7_horizon = 100.0

let dumbbell ~flows =
  Scenario.dumbbell
    {
      (Net.Dumbbell.paper_config ~flows) with
      Net.Dumbbell.gateway = Net.Dumbbell.Droptail { capacity = 25 };
    }

let params = { Tcp.Params.default with rwnd = 20 }

let cases = Core.Variant.[ (Reno, Reno); (Rr, Reno); (Rr, Rr); (Reno, Rr) ]

let fig7_losses = [ 0.001; 0.002; 0.005; 0.01; 0.02; 0.03; 0.05; 0.07; 0.1 ]

(* The seed draws each Table 5 target's start phase (within one RTT,
   as Table 5's own phase grid) and every run's simulator seed, in an
   order that does not depend on [horizon]. *)
let specs ~seed ~horizon =
  let rng = Random.State.make [| seed |] in
  let draw_seed () = Int64.of_int (Random.State.bits rng) in
  let table5 =
    List.concat_map
      (fun (background, target) ->
        List.init phases_per_case (fun _ ->
            let phase = Random.State.float rng 0.21 in
            let seed = draw_seed () in
            let flows =
              List.init 20 (fun flow ->
                  if flow = 19 then
                    {
                      (Scenario.flow target) with
                      Scenario.start = 4.8 +. phase;
                      source = Scenario.File_bytes 100_000;
                    }
                  else
                    {
                      (Scenario.flow background) with
                      Scenario.start = 0.5 *. float_of_int flow;
                    })
            in
            Scenario.make ~topology:(dumbbell ~flows:20) ~flows ~params ~seed
              ~duration:(Float.min horizon table5_horizon) ~audit_sample:8 ()))
      cases
  in
  let fig7 =
    List.concat_map
      (fun variant ->
        List.map
          (fun uniform_loss ->
            let seed = draw_seed () in
            Scenario.make ~topology:(dumbbell ~flows:1)
              ~flows:[ Scenario.flow variant ]
              ~params ~seed
              ~duration:(Float.min horizon fig7_horizon)
              ~uniform_loss ())
          fig7_losses)
      Core.Variant.[ Sack; Rr ]
  in
  table5 @ fig7

let pass specs = List.map (fun spec -> fst (Scen.run spec)) specs

type t = {
  full : Scenario.spec list;
  setup : Scenario.spec list;
  traced : Scenario.spec list;
  no_audit : Scenario.spec list;
  counts : Scen.counts;  (** of one full pass *)
}

(* The reference pass, outside the timed loop. Counts are taken as each
   run ends, so no run outlives its op and the peak RSS stays the
   program's. *)
let prepare ~seed =
  let full = specs ~seed ~horizon:infinity in
  let warm = List.map (fun spec -> Scen.with_counts (Scen.run spec)) full in
  let ops = List.map fst warm in
  Harness.check ~kind ops;
  Harness.pin ~kind ~seed ~pinned ops;
  {
    full;
    setup = specs ~seed ~horizon:0.001;
    traced = List.map Scen.traced full;
    no_audit = List.map Scen.without_audit full;
    counts = Scen.total (List.map snd warm);
  }

let runs t = List.length t.full

let plain t () = Harness.check ~kind (pass t.full)

let setup t () = Harness.check ~kind:(kind ^ " set-up") (pass t.setup)

let traced t () =
  Harness.check ~kind
    (List.map
       (fun spec ->
         fst (Perfbench_kit.Span.wrap Harness.recorder Harness.k_scenario Scen.run spec))
       t.traced)

(* The same runs without the auditor simulate what the audited ones did. *)
let no_audit t () = Harness.check ~kind (pass t.no_audit)

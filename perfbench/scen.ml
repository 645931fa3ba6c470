(* Scenario plumbing shared by the parts of the simulate workload: what
   one Scenario.run produced, its digest, and the wrapped flow specs of
   the traced run. *)

open Experiments

let counters (r : Scenario.flow_result) =
  r.Scenario.agent.Tcp.Agent.base.Tcp.Sender_common.counters

let queues (t : Scenario.t) =
  match t.Scenario.net with
  | Scenario.Dumbbell_net d -> Net.Dumbbell.queues d
  | Scenario.Graph_net (g, _) -> Net.Topology.queues g

(* Simulated counts of one run, for the per-layer ratios. *)
type counts = {
  segments : int;  (** first sends plus retransmissions *)
  acks : int;
  retransmits : int;
  timeouts : int;
  dequeued : int;
  drops : int;
  checks : int;
  fault_steps : int;
}

let zero =
  {
    segments = 0;
    acks = 0;
    retransmits = 0;
    timeouts = 0;
    dequeued = 0;
    drops = 0;
    checks = 0;
    fault_steps = 0;
  }

let add a b =
  {
    segments = a.segments + b.segments;
    acks = a.acks + b.acks;
    retransmits = a.retransmits + b.retransmits;
    timeouts = a.timeouts + b.timeouts;
    dequeued = a.dequeued + b.dequeued;
    drops = a.drops + b.drops;
    checks = a.checks + b.checks;
    fault_steps = a.fault_steps + b.fault_steps;
  }

let counts (t : Scenario.t) =
  let per_flow f =
    Array.fold_left (fun acc r -> acc + f (counters r)) 0 t.Scenario.results
  in
  {
    segments =
      per_flow (fun c -> c.Tcp.Counters.segments_sent + c.Tcp.Counters.retransmits);
    acks =
      per_flow (fun c -> c.Tcp.Counters.acks_received + c.Tcp.Counters.dupacks_received);
    retransmits = per_flow (fun c -> c.Tcp.Counters.retransmits);
    timeouts = per_flow (fun c -> c.Tcp.Counters.timeouts);
    dequeued =
      List.fold_left
        (fun acc (_, q) -> acc + q.Net.Queue_disc.stats.Net.Queue_disc.dequeued)
        0 (queues t);
    drops =
      Array.fold_left
        (fun acc flow -> acc + Scenario.drops t ~flow)
        0
        (Array.init (Array.length t.Scenario.results) Fun.id);
    checks = Audit.Auditor.checks_run t.Scenario.auditor;
    fault_steps =
      (match t.Scenario.injector with
      | None -> 0
      | Some i ->
        Faults.Injector.(rate_changes i + delay_changes i + downs i + fault_drops i));
  }

(* Per-flow counters, drops and completion time, and per-queue
   dequeues: everything the run simulated that a speed-up must not
   move. The auditor's own counts are left out, so a run without the
   auditor digests the same. *)
let digest (t : Scenario.t) =
  let b = Buffer.create 256 in
  Array.iteri
    (fun flow r ->
      let c = counters r in
      Printf.bprintf b "%d:%d,%d,%d,%d,%d,%d,%d,%s;" flow c.Tcp.Counters.segments_sent
        c.Tcp.Counters.retransmits c.Tcp.Counters.timeouts
        c.Tcp.Counters.fast_retransmits c.Tcp.Counters.acks_received
        c.Tcp.Counters.dupacks_received (Scenario.drops t ~flow)
        (match r.Scenario.completion with
        | None -> "-"
        | Some c -> Printf.sprintf "%h" c.Workload.Ftp.finished))
    t.Scenario.results;
  List.iter
    (fun (name, q) ->
      Printf.bprintf b "%s:%d;" name q.Net.Queue_disc.stats.Net.Queue_disc.dequeued)
    (queues t);
  Harness.digest_of_string (Buffer.contents b)

(* [with_counts (op, t)] keeps the op and the run's counts, not the run. *)
let with_counts (op, t) = (op, Option.map counts t)

let total = List.fold_left (fun acc c -> Option.fold ~none:acc ~some:(add acc) c) zero

(* [run spec] is one operation: [Scenario.run spec] timed as a
   program call, then checked: the run's digest, or why it failed. *)
let run spec =
  match Harness.call Scenario.run spec with
  | t ->
    if Audit.Auditor.ok t.Scenario.auditor then (Harness.Done (digest t), Some t)
    else (Harness.Failed "auditor violation", Some t)
  | exception e -> (Harness.Failed ("Scenario.run: " ^ Printexc.to_string e), None)

let rr_name = Core.Variant.name Core.Variant.Rr

(* The traced run's flows: each sender's [emit] and returned
   [deliver_ack] are timed as spans (RR senders apart from the rest).
   Simulation is untouched, so the counts must match a plain run. *)
let traced (spec : Scenario.spec) =
  let module Span = Perfbench_kit.Span in
  let wrap (fs : Scenario.flow_spec) =
    let make ~engine ~params ~flow ~emit () =
      let built =
        fs.Scenario.make ~engine ~params ~flow
          ~emit:(Span.wrap Harness.recorder Harness.k_emit emit)
          ()
      in
      let agent = built.Scenario.agent in
      let kind =
        if agent.Tcp.Agent.name = rr_name then Harness.k_rr_ack
        else Harness.k_sender_ack
      in
      {
        built with
        Scenario.agent =
          {
            agent with
            Tcp.Agent.deliver_ack =
              Span.wrap Harness.recorder kind agent.Tcp.Agent.deliver_ack;
          };
      }
    in
    { fs with Scenario.make }
  in
  { spec with Scenario.flows = List.map wrap spec.Scenario.flows }

let without_audit (spec : Scenario.spec) = { spec with Scenario.audit_sample = 0 }

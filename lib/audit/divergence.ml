type finding = {
  time : float;
  subject : string;
  rule : string;
  detail : string;
}

(* One (ratio, srtt, rto) observation, taken at ACK and timeout events.
   Ratio = rto / srtt — the estimator's margin over the path it is
   supposed to track. *)
type obs = { at : float; ratio : float; obs_srtt : float; obs_rto : float }

type flow_state = {
  label : string;
  agent : Tcp.Agent.t;
  mutable recent : obs list;  (* newest first, truncated to the window *)
}

(* The divergence rule looks at the last [trend_window] observations
   and asks for a [trend_factor] rise (about three uninterrupted backoff
   doublings); the synchronization rule for [sync_flows] distinct flows
   timing out within [sync_window] seconds. At most [max_recorded]
   findings keep their detail text. *)
let trend_window = 4

let trend_factor = 6.0

let sync_window = 0.5

let sync_flows = 2

let max_recorded = 100

type t = {
  engine : Sim.Engine.t;
  mutable flows : flow_state list;
  mutable timeout_log : (float * string) list;  (* newest first, pruned *)
  mutable last_burst : float;
  mutable recorded : finding list;  (* newest first, capped *)
  mutable divergences : int;
  mutable sync_bursts : int;
}

let create ~engine () =
  {
    engine;
    flows = [];
    timeout_log = [];
    last_burst = neg_infinity;
    recorded = [];
    divergences = 0;
    sync_bursts = 0;
  }

let record t ~subject ~rule ~detail =
  let total = t.divergences + t.sync_bursts in
  if total < max_recorded then
    t.recorded <-
      { time = Sim.Engine.now t.engine; subject; rule; detail } :: t.recorded

let rec take n = function
  | [] -> []
  | _ when n = 0 -> []
  | x :: rest -> x :: take (n - 1) rest

(* The divergence signature Jain predicts for timeout feedback loops:
   across the last [trend_window] observations the rto/srtt ratio never
   falls and ends at least [trend_factor] times where it started — the
   timeout is running away from the path it measures (successive
   backoffs with no successful sample pulling the estimate back). *)
let check_trend t flow =
  if List.length flow.recent >= trend_window then begin
    let window = List.rev (take trend_window flow.recent) in
    let nondecreasing =
      let rec ok = function
        | a :: (b :: _ as rest) -> a.ratio <= b.ratio && ok rest
        | [ _ ] | [] -> true
      in
      ok window
    in
    let first = List.hd window in
    let last = List.nth window (trend_window - 1) in
    if nondecreasing && last.ratio >= trend_factor *. first.ratio then begin
      t.divergences <- t.divergences + 1;
      record t ~subject:flow.label ~rule:"rto-divergence"
        ~detail:
          (Printf.sprintf
             "RTO ran from %.3fs to %.3fs (x%.1f) over %d observations while \
              measured srtt held at %.3fs"
             first.obs_rto last.obs_rto
             (last.ratio /. first.ratio)
             trend_window last.obs_srtt);
      (* Episode reset: one finding per runaway, not one per further
         doubling. *)
      flow.recent <- []
    end
  end

let observe t flow =
  let rto = flow.agent.Tcp.Agent.base.Tcp.Sender_common.rto in
  match Tcp.Rto.srtt rto with
  | None -> ()
  | Some srtt when srtt <= 0.0 -> ()
  | Some srtt ->
    let value = Tcp.Rto.value rto in
    flow.recent <-
      take trend_window
        ({ at = Sim.Engine.now t.engine; ratio = value /. srtt;
           obs_srtt = srtt; obs_rto = value }
        :: flow.recent);
    check_trend t flow

let note_timeout t flow =
  let now = Sim.Engine.now t.engine in
  t.timeout_log <-
    (now, flow.label)
    :: List.filter (fun (at, _) -> now -. at <= sync_window) t.timeout_log;
  let distinct =
    List.sort_uniq compare (List.map snd t.timeout_log)
  in
  if
    List.length distinct >= sync_flows
    && now -. t.last_burst > sync_window
  then begin
    t.last_burst <- now;
    t.sync_bursts <- t.sync_bursts + 1;
    record t ~subject:"all flows" ~rule:"timeout-sync"
      ~detail:
        (Printf.sprintf
           "%d flows timed out within %.3fs of each other (%s)"
           (List.length distinct) sync_window
           (String.concat ", " distinct))
  end

let attach_sender t ~label agent =
  let flow = { label; agent; recent = [] } in
  t.flows <- flow :: t.flows;
  let base = agent.Tcp.Agent.base in
  Tcp.Sender_common.on_ack base (fun ~time:_ ~ackno:_ -> observe t flow);
  Tcp.Sender_common.on_timeout base (fun ~time:_ ->
      (* The timeout hook fires before the backoff is applied, so the
         observation here is the value that just expired; the next
         timeout (or ACK) sees the doubled one. *)
      observe t flow;
      note_timeout t flow)

let findings t = List.rev t.recorded

let divergence_count t = t.divergences

let sync_burst_count t = t.sync_bursts

let finding_count t = t.divergences + t.sync_bursts

let quiet t = finding_count t = 0

type event =
  | Link_down of { link : string }
  | Link_up of { link : string }
  | Fault_drop of { link : string; packet : Net.Packet.t }
  | Reordered of { path : string; packet : Net.Packet.t; extra : float }
  | Rate_change of { link : string; bps : float }
  | Delay_change of { link : string; delay : float }

type t = {
  engine : Sim.Engine.t;
  mutable hooks : (time:float -> event -> unit) list;  (* reversed *)
  mutable downs : int;
  mutable fault_drops : int;
  mutable reordered : int;
  mutable jittered : int;
  mutable rate_changes : int;
  mutable delay_changes : int;
}

let create ~engine () =
  {
    engine;
    hooks = [];
    downs = 0;
    fault_drops = 0;
    reordered = 0;
    jittered = 0;
    rate_changes = 0;
    delay_changes = 0;
  }

let subscribe t f = t.hooks <- f :: t.hooks

let emit t event =
  let time = Sim.Engine.now t.engine in
  List.iter (fun f -> f ~time event) (List.rev t.hooks)

let downs t = t.downs

let fault_drops t = t.fault_drops

let reordered t = t.reordered

let jittered t = t.jittered

let rate_changes t = t.rate_changes

let delay_changes t = t.delay_changes

let flap_link t ~name ~policy ?(on_drop = fun _ -> ()) link schedule =
  let drain () =
    match policy with
    | `Hold_queued -> ()
    | `Drop_queued ->
      let queue = Net.Link.queue link in
      let rec drop () =
        let packet = queue.Net.Queue_disc.dequeue () in
        if not (Net.Packet.is_none packet) then begin
          t.fault_drops <- t.fault_drops + 1;
          on_drop packet;
          emit t (Fault_drop { link = name; packet });
          drop ()
        end
      in
      drop ()
  in
  List.iter
    (fun { Schedule.at; up } ->
      Sim.Engine.schedule_at t.engine ~time:at (fun () ->
          Net.Link.set_up link up;
          if up then emit t (Link_up { link = name })
          else begin
            t.downs <- t.downs + 1;
            emit t (Link_down { link = name });
            drain ()
          end))
    (Schedule.transitions schedule)

(* Apply a value timeline to a live link. Each step is one scheduled
   event that sets the new rate and/or delay (packet-boundary binding
   is the link's own contract) and announces the change. When a rate
   step coincides with a flap restore — the handover pattern — apply
   [vary_link] before [flap_link]: same-time events fire in scheduling
   order, so the restarted service then serializes at the new rate. *)
let vary_link t ~name link timeline =
  List.iter
    (fun { Timeline.at; rate; delay } ->
      Sim.Engine.schedule_at t.engine ~time:at (fun () ->
          (match rate with
          | Some bps ->
            Net.Link.set_rate link bps;
            t.rate_changes <- t.rate_changes + 1;
            emit t (Rate_change { link = name; bps })
          | None -> ());
          match delay with
          | Some d ->
            Net.Link.set_delay link d;
            t.delay_changes <- t.delay_changes + 1;
            emit t (Delay_change { link = name; delay = d })
          | None -> ()))
    (Timeline.steps timeline)

let reorder t ~path ~rng ~prob ~max_extra next =
  if prob < 0.0 || prob > 1.0 then invalid_arg "Injector.reorder: bad prob";
  if max_extra <= 0.0 then invalid_arg "Injector.reorder: max_extra <= 0";
  fun packet ->
    if Sim.Rng.bernoulli rng prob then begin
      (* (0, max_extra]: a zero hold would not reorder anything. *)
      let extra = max_extra *. (1.0 -. Sim.Rng.float rng) in
      t.reordered <- t.reordered + 1;
      emit t (Reordered { path; packet; extra });
      Sim.Engine.schedule_after t.engine ~delay:extra (fun () -> next packet)
    end
    else next packet

let jitter t ~rng ~max_jitter next =
  if max_jitter <= 0.0 then invalid_arg "Injector.jitter: max_jitter <= 0";
  (* Latest delivery time scheduled so far; clamping to it keeps the
     wrapped path FIFO while still spreading inter-arrival gaps. *)
  let horizon = ref 0.0 in
  fun packet ->
    let now = Sim.Engine.now t.engine in
    let at = Float.max (now +. Sim.Rng.float_range rng ~lo:0.0 ~hi:max_jitter) !horizon in
    horizon := at;
    t.jittered <- t.jittered + 1;
    Sim.Engine.schedule_at t.engine ~time:at (fun () -> next packet)

(** Figure 7 — fitness to the square-root (Mathis) model.

    One TCP connection runs for 100 s over the Table 3 topology while
    uniform random losses at rate [p] are injected at gateway R1; MSS is
    1000 bytes and the no-load RTT ≈ 200 ms. The measured window
    [BW·RTT/MSS] is compared against the model bound [C/√p] for SACK
    and RR across a grid of loss rates. The paper's shape: both track
    the model at small [p] and fall below it at large [p], where
    retransmission losses and tiny windows force timeouts; RR fits at
    least as well as SACK. The Padhye (PFTK) model, which includes
    timeouts, is also printed as the §4-referenced refinement. *)

type point = {
  loss_rate : float;
  model_window : float;  (** C = √(3/2) *)
  model_window_paper_c : float;  (** C = 4, as the paper's text states *)
  padhye_window : float;
  measured : (Core.Variant.t * float * int) list;
      (** variant, measured window, timeouts (averaged over seeds) *)
}

type outcome = {
  rtt : float;
  c_model : float;  (** the Mathis constant used for [model_window] *)
  points : point list;
}

(** {1 The window kernel}

    {!Modelcheck} compares the same measurement with each variant's own
    model. *)

(** The clean dumbbell: the paper's, one flow, with a 25-packet
    drop-tail buffer so queue overflows never add to the injected
    uniform loss. *)
val config : Net.Dumbbell.config

(** Its no-queueing RTT for the default MSS and ACK size
    ({!Scenario.rtt_estimate}). *)
val rtt : float

(** Seconds at the start of each run left out of the measurement
    (5 s): windows are measured from [warmup] to [duration]. *)
val warmup : float

(** [measure ?delayed_ack ~params ~seeds ~duration ~loss_rate variant]
    runs [variant] alone on {!config} under uniform loss at
    [loss_rate] once per seed and returns the seed-mean window
    [BW·RTT/MSS] over [\[warmup, duration\]] and the seed-mean timeout
    count, rounded down.

    @raise Invalid_argument ["needs at least one seed"] when [seeds] is
    empty, and ["--duration D: must be finite and >= 0"] or
    ["--duration D: must exceed the 5 s warm-up"], before any run. *)
val measure :
  ?delayed_ack:bool ->
  params:Tcp.Params.t ->
  seeds:int64 list ->
  duration:float ->
  loss_rate:float ->
  Core.Variant.t ->
  float * int

(** [run ()] sweeps the loss-rate grid (default the paper's 0.001–0.1)
    for SACK and RR with rwnd 20, averaging over [seeds] runs of
    [duration] (default 100 s) each. With [delayed_ack] (an extension
    — the paper's receivers ACK every packet) receivers delay ACKs and
    the model column uses the delayed-ACK constant [C = sqrt(3/4)] and
    [b = 2].

    @raise Invalid_argument as {!measure}. *)
val run :
  ?loss_rates:float list ->
  ?variants:Core.Variant.t list ->
  ?seeds:int64 list ->
  ?duration:float ->
  ?delayed_ack:bool ->
  unit ->
  outcome

(** [report outcome] renders the comparison table. *)
val report : outcome -> string

(** [plot outcome] draws measured windows and the model curve against
    [1/√p]. *)
val plot : outcome -> string

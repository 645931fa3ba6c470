(** Model-vs-measured validation of every modeled variant.

    Runs each variant alone on the clean uniform-loss dumbbell with
    rwnd 20, through Figure 7's measurement ({!Fig7.measure}), and
    compares the measured steady-state window [BW * RTT / MSS] against
    the variant's own analytical model:

    - Reno / New-Reno / SACK / FACK / RR — {!Model.Mathis} with
      [C = sqrt (3/2)];
    - Relentless — {!Model.Relentless}, the arxiv 1102.3270
      equilibrium [1/p];
    - RRR — {!Model.Rrr} at the configured congestion level.

    All predictions are capped at the advertised window. The [dev]
    column is the signed relative deviation; the tier-1 test suite
    pins Relentless within 15% of its model at the default operating
    point, and [rr-sim modelcheck --check TOL] turns any larger
    deviation into a non-zero exit. *)

type row = {
  variant : Core.Variant.t;
  model : string;  (** which model predicted, e.g. ["1/p"] *)
  predicted_window : float;  (** model window, segments, rwnd-capped *)
  measured_window : float;  (** measured [BW * RTT / MSS], segments *)
  deviation : float;  (** [(measured - predicted) / predicted] *)
  timeouts : int;  (** cross-seed mean, rounded down *)
}

type point = { loss_rate : float; rows : row list }

type outcome = {
  rtt : float;  (** analytic no-queue RTT used for window conversion *)
  rwnd : int;
  rrr_level : float;
  points : point list;  (** one per loss rate, in argument order *)
}

(** The modeled variants: Reno, New-Reno, SACK, RR, Relentless, RRR. *)
val default_variants : Core.Variant.t list

(** [0.002 … 0.1] — spanning both regimes. At small [p] the
    advertised-window cap binds (the §4 "sufficient receiver window"
    never exists on a real path), timeouts are rare, and measurements
    sit within a few percent of the capped models. As [p] grows the
    deviations grow for every variant, Relentless fastest: its
    equilibrium operates at one loss per RTT by construction, so lost
    retransmissions — which the NewReno-style detection can only
    repair by RTO, a path no steady-state model includes — become
    routine. The report deliberately shows both regimes. *)
val default_loss_rates : float list

(** [model_window variant ~rrr_level ~loss_rate ~rwnd] is the
    variant's model name and rwnd-capped window prediction. *)
val model_window :
  Core.Variant.t ->
  rrr_level:float ->
  loss_rate:float ->
  rwnd:int ->
  string * float

(** [run ()] measures every variant × loss rate, averaging windows
    over [seeds].

    @raise Invalid_argument as {!Fig7.measure}. *)
val run :
  ?variants:Core.Variant.t list ->
  ?loss_rates:float list ->
  ?seeds:int64 list ->
  ?duration:float ->
  ?rrr_level:float ->
  unit ->
  outcome

(** [deviation outcome ~variant ~loss_rate] is the signed relative
    deviation at one grid cell, when present. *)
val deviation :
  outcome -> variant:Core.Variant.t -> loss_rate:float -> float option

(** [beyond outcome ~tolerance] describes each cell whose |deviation|
    is not within [tolerance] (a NaN deviation never is), e.g.
    ["rr at p=0.1: +23.4%"], in report order. *)
val beyond : outcome -> tolerance:float -> string list

val report : outcome -> string

(** Figure 5 — effective throughput during congestion recovery when 3
    (left) or 6 (right) packets are lost within one window of data,
    under drop-tail gateways.

    The paper engineers the loss pattern with two background flows and
    an 8-packet buffer, noting any setup that yields the same pattern is
    equivalent; here a deterministic drop list at R1 forces exactly the
    requested first-transmission losses inside one window (see
    DESIGN.md). The flow's advertised window is capped at the pipe size
    so no incidental drops pollute the measurement.

    Reported per variant: effective throughput over a fixed window
    starting at the first drop, the time to repair the whole loss
    window (cumulative ACK passing the last dropped segment), and
    timeout/retransmission counts. *)

(** {1 The burst kernel}

    The artifacts that measure recovery from one loss burst share this
    scenario and measurement: Figure 5 over the paper's variants,
    {!Ablation} over RR's design flags, {!Vegas_claim} over Vegas'
    mechanisms, {!Sensitivity} on other dumbbells and {!Ack_loss} under
    reverse-path ACK drops. *)

(** [scenario ?config ?ack_loss ~drops ~seed flow] is [flow] alone on
    the dumbbell [config] (default the paper's, one flow) losing
    segments 33 … 33 + [drops] − 1 once each at R1, with ssthresh 16,
    rwnd 20 and ACKs dropped at rate [ack_loss] (default 0).

    @raise Invalid_argument ["--drops N: must be >= 1"] unless
    [drops >= 1]. *)
val scenario :
  ?config:Net.Dumbbell.config ->
  ?ack_loss:float ->
  drops:int ->
  seed:int64 ->
  Scenario.flow_spec ->
  Scenario.spec

type measure = {
  throughput_bps : float;  (** over [\[t0, t0 + window\]] *)
  recovery_seconds : float option;
      (** t0 → cumulative ACK past the loss window *)
  timeouts : int;
  retransmits : int;
}

(** [measure ~drops ~window t] reads flow 0 of a run of {!scenario}
    from t0, its first data drop.

    @raise Failure if flow 0 lost no data segment. *)
val measure : drops:int -> window:float -> Scenario.t -> measure

type outcome = {
  drops : int;
  measure_window : float;
  rows : (string * measure) list;  (** by flow label, in flow order *)
}

(** The paper's four variants (Tahoe, New-Reno, SACK, RR) plus Reno,
    one flow each. *)
val paper_flows : Scenario.flow_spec list

(** [run ~drops ?measure_window ?seed flows] runs {!scenario} for each
    of [flows] and measures it over [measure_window] (default 3 s, ≈15
    RTTs, covering recovery for all variants). [seed] defaults to 7.

    @raise Invalid_argument ["--window W: must be finite and > 0"] or
    as {!scenario}, before any run. *)
val run :
  drops:int ->
  ?measure_window:float ->
  ?seed:int64 ->
  Scenario.flow_spec list ->
  outcome

(** {2 Report columns} *)

(** [throughput title] shows the throughput in Kbps under [title]. *)
val throughput : string -> measure Variant_table.column

val recovery : measure Variant_table.column

val timeouts : measure Variant_table.column

val retransmits : measure Variant_table.column

(** [table ~key ~columns outcome] lays the rows out under [key] (the
    labels' header) and [columns]. *)
val table :
  key:string -> columns:measure Variant_table.column list -> outcome -> string

(** [report outcome] renders the Figure 5 table with the paper's
    expected ordering noted. *)
val report : outcome -> string

(** {1 The paper's literal setup}

    §3.2 engineers the loss pattern with two infinite background flows
    behind an 8-packet buffer while the measured first connection sends
    a limited amount of data; its effective throughput is then
    [file size / transfer time]. This mode reproduces that literal
    arrangement (one deterministic run — drop-tail phase effects and
    all); the forced-drop mode above is the controlled version. *)

type background_row = {
  b_variant : Core.Variant.t;
  transfer_seconds : float option;
  effective_throughput_bps : float option;
  target_drops : int;
  b_timeouts : int;
}

type background_outcome = { b_rows : background_row list }

(** [run_background ()] runs the 3-flow setup per variant (all three
    flows use the same recovery mechanism, as in §3.3's convention),
    the measured connection sending 100 KB from 2 s. *)
val run_background :
  ?variants:Core.Variant.t list ->
  ?seed:int64 ->
  unit ->
  background_outcome

(** [report_background outcome] renders the table. *)
val report_background : background_outcome -> string

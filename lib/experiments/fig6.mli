(** Figure 6 — recovery dynamics under RED gateways.

    Ten flows of the same variant share the 0.8 Mbps bottleneck behind a
    RED gateway (buffer 25, Table 4 parameters). Five start at t = 0 and
    one more every 0.5 s until 2.5 s; all are persistent FTPs; the run
    lasts 6 s. Heavy congestion at the RED gateway produces bursty
    drops; the paper plots flow 1's sequence-number trace per recovery
    mechanism and reports that RR achieves the highest effective
    throughput (RR > SACK > New-Reno, with New-Reno's ACK flow visibly
    stalling). *)

type result = {
  variant : Core.Variant.t;
  throughput_bps : float;  (** flow 0 goodput over the whole run *)
  mean_throughput_bps : float;  (** mean over all flows *)
  timeouts : int;  (** flow 0 *)
  total_timeouts : int;  (** all flows *)
  fast_recoveries : int;  (** flow 0 recovery entries *)
  sends : (float * float) list;  (** flow 0 (time, seq) transmissions *)
  acks : (float * float) list;  (** flow 0 (time, ackno) *)
  cwnd : (float * float) list;
      (** flow 0 (time, cwnd) — the paper's §3.3 narration tracks this
          ("bursty packet losses occur after cwnd reaches 16") *)
  red_early_drops : int;
  red_forced_drops : int;
}

type outcome = { duration : float; results : result list }

(** [validate ~duration] is {!run}'s check of its horizon, for a caller
    that refuses a bad value before it creates any output. The mean
    goodput averages every flow, so the horizon must pass the last
    flow's start at 2.5 s.

    @raise Invalid_argument ["--duration D: must be finite and > 0"], or
    ["--duration D: must exceed 2.5 s, when the last flow starts"]. *)
val validate : duration:float -> unit

(** [run ()] executes the scenario for each variant (default: the
    paper's New-Reno, SACK, RR trio plus Tahoe) for [duration] seconds
    (default 6).

    @raise Invalid_argument as {!validate}, before any run. *)
val run :
  ?variants:Core.Variant.t list -> ?seed:int64 -> ?duration:float -> unit ->
  outcome

(** [report outcome] renders the throughput table. *)
val report : outcome -> string

(** [plot result] renders the flow-0 sequence-number trace as an ASCII
    scatter plot (sends and cumulative ACKs). *)
val plot : result -> string

(** [plot_cwnd result] renders the flow-0 congestion-window trajectory. *)
val plot_cwnd : result -> string

(** Declarative fault configuration.

    A [Spec.t] names {e which} faults a run suffers without touching any
    live object: it is what scenarios store, campaign jobs hash, and the
    CLI parses. Turning a spec into scheduled events against a concrete
    topology is the caller's job (see [Experiments.Scenario]), using
    {!flap_schedule} for the link timeline and {!Injector.reorder} /
    {!Injector.jitter} for the path wrappers.

    The textual form ({!of_string} / {!to_string}) is a comma-separated
    clause list, e.g. ["flap:4+0.5,drop,reorder:0.05,jitter:0.01"]:

    - ["flap:PERIOD+DOWN"] — cut the trunk for [DOWN] s every
      [PERIOD] s ({!Schedule.periodic});
    - ["flap:rand:UP+DOWN"] — exponential on/off outages with mean up
      time [UP] and mean down time [DOWN] ({!Schedule.random});
    - ["drop"] / ["hold"] — what happens to the queued backlog at each
      down transition (default ["hold"]);
    - ["reorder:PROB"] or ["reorder:PROB:MAXEXTRA"] — hold each packet
      with probability [PROB] for up to [MAXEXTRA] s (default
      {!default_reorder_extra});
    - ["jitter:MAX"] — FIFO-preserving uniform extra delay in
      [[0, MAX)) s;
    - ["reverse"] — apply reorder/jitter to the reverse (ACK) path as
      well as the forward data path.

    The hostile-network clauses (time-varying link conditions, realized
    through {!Timeline} and {!Injector.vary_link}; factors are relative
    to the target link's configured rate):

    - ["fade:PERIOD+L1[+L2...]"] — multi-level fading: every [PERIOD] s
      the trunk rate steps to the next factor in the cyclic level list;
    - ["handover:PERIOD+GAP[+L1+L2...]"] — cellular handover: every
      [PERIOD] s the trunk cuts for [GAP] s (queued packets burst-lost)
      and resumes at the next level factor (default
      {!default_handover_levels});
    - ["asym:R"] — asymmetric ACK channel: the reverse trunk runs at
      [1/R] of the forward bottleneck rate ([R >= 1]). *)

type flap =
  | Periodic of { period : float; down_for : float }
  | Random of { mean_up : float; mean_down : float }
  | Explicit of (float * float) list  (** (down_at, up_at) outages *)

type reorder = { prob : float; max_extra : float }

type fade = {
  fade_period : float;
  fade_levels : float list;  (** cyclic rate factors, each > 0 *)
}

type handover = {
  ho_period : float;
  ho_gap : float;  (** outage length at each handover, seconds *)
  ho_levels : float list;  (** cyclic post-handover rate factors *)
}

type t = {
  flaps : flap option;
  flap_policy : [ `Drop_queued | `Hold_queued ];
  reorder : reorder option;
  jitter : float option;  (** max extra delay, seconds *)
  reverse : bool;  (** reorder/jitter the ACK path too *)
  fade : fade option;
  handover : handover option;
  asym : float option;  (** forward:reverse trunk rate ratio, >= 1 *)
}

(** [none] has every fault disabled — the default of every scenario. *)
val none : t

(** [is_none t] reports whether [t] injects nothing. *)
val is_none : t -> bool

(** [has_timeline t] reports whether [t] carries any time-varying link
    condition (fade, handover or asym) — the clauses a runner realizes
    through {!Injector.vary_link}. *)
val has_timeline : t -> bool

(** [default_reorder_extra] is the reorder hold-back bound used when
    the textual form omits [MAXEXTRA]: 50 ms, a quarter RTT of the
    paper's topology. *)
val default_reorder_extra : float

(** [default_handover_levels] is the post-handover rate-factor cycle
    used when ["handover:"] omits levels: alternate full-rate and
    half-rate cells. *)
val default_handover_levels : float list

(** [flap_schedule t ~rng ~until] realizes the spec's flap description
    as a concrete {!Schedule.t} over [[0, until]]. [rng] is consumed
    only by [Random] flaps. [None] when the spec has no flaps. *)
val flap_schedule : t -> rng:Sim.Rng.t -> until:float -> Schedule.t option

(** [of_string s] parses the textual form. The empty string is
    {!none}. Every number must be finite ([nan] and [inf] are
    errors), and explicit outages must be ones {!Schedule.of_flaps}
    accepts. *)
val of_string : string -> (t, string) result

(** [to_string t] renders the canonical textual form; a round-trip
    through {!of_string} is the identity on parseable specs.
    [Explicit] flaps render as ["flap:@D1+U1@D2+U2..."] (absolute
    down/up times), which {!of_string} also accepts. *)
val to_string : t -> string

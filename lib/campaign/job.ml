type gateway = Droptail of int | Red of int

type topology = Dumbbell | Parking_lot of int | Fat_tree of int

type t = {
  variant : Core.Variant.t;
  gateway : gateway;
  topology : topology;
  uniform_loss : float;
  ack_loss : float;
  reorder : float;
  flap_period : float;
  cbr_share : float;
  estimator : Tcp.Rto.estimator;
  rrr_level : float;
  asym_ratio : float;  (* forward:reverse trunk rate ratio; 0 = off *)
  handover_period : float;  (* seconds between handovers; 0 = off *)
  seed : int64;
  duration : float;
  flows : int;
  rwnd : int;
}

let flap_down_for = 0.3

let handover_gap = 0.4

let gateway_name = function
  | Droptail capacity -> Printf.sprintf "droptail:%d" capacity
  | Red capacity -> Printf.sprintf "red:%d" capacity

let topology_name = function
  | Dumbbell -> "dumbbell"
  | Parking_lot hops -> Printf.sprintf "parking-lot:%d" hops
  | Fat_tree pods -> Printf.sprintf "fat-tree:%d" pods

(* [kind] (meaning [kind:default]) or [kind:N] with N >= [least]. *)
let sized ~kind ~default ?(least = 1) s =
  match String.split_on_char ':' (String.lowercase_ascii (String.trim s)) with
  | [ k ] when k = kind -> Some default
  | [ k; n ] when k = kind ->
    Option.bind (int_of_string_opt n) (fun n ->
        if n >= least then Some n else None)
  | _ -> None

let gateway_of_string s =
  match (sized ~kind:"droptail" ~default:8 s, sized ~kind:"red" ~default:25 s)
  with
  | Some capacity, _ -> Ok (Droptail capacity)
  | _, Some capacity -> Ok (Red capacity)
  | None, None ->
    Error
      (Printf.sprintf
         "invalid gateway %S (expected droptail[:BUFFER] or red[:BUFFER])" s)

(* A graph's size and its route rows (routed nodes x nodes words) grow
   with these counts; the caps keep a typo from building a huge one. *)
let max_hops = 64

let max_pods = 64

let topology_of_string s =
  let too_many ~count ~what ~most =
    Error (Printf.sprintf "topology %S has %d %s (at most %d)" s count what most)
  in
  if String.lowercase_ascii (String.trim s) = "dumbbell" then Ok Dumbbell
  else
    match
      ( sized ~kind:"parking-lot" ~default:2 s,
        sized ~kind:"fat-tree" ~default:2 ~least:2 s )
    with
    | Some hops, _ ->
      if hops > max_hops then too_many ~count:hops ~what:"hops" ~most:max_hops
      else Ok (Parking_lot hops)
    | _, Some pods ->
      if pods > max_pods then too_many ~count:pods ~what:"pods" ~most:max_pods
      else Ok (Fat_tree pods)
    | None, None ->
      Error
        (Printf.sprintf
           "invalid topology %S (expected dumbbell, parking-lot[:HOPS] or \
            fat-tree[:PODS])"
           s)

let default =
  {
    variant = Core.Variant.Reno;
    gateway = Droptail 8;
    topology = Dumbbell;
    uniform_loss = 0.02;
    ack_loss = 0.0;
    reorder = 0.0;
    flap_period = 0.0;
    cbr_share = 0.0;
    estimator = Tcp.Rto.Jacobson;
    rrr_level = 0.5;
    asym_ratio = 0.0;
    handover_period = 0.0;
    seed = 7L;
    duration = 20.0;
    flows = 2;
    rwnd = 20;
  }

(* The CBR competitor of a job's [cbr_share]: a share of the paper
   dumbbell's bottleneck rate, which every topology's links carry. *)
let cbr_source job : Experiments.Scenario.cross =
  let paper = Net.Dumbbell.paper_config ~flows:1 in
  Experiments.Scenario.cbr
    ~rate_bps:(job.cbr_share *. paper.bottleneck_bandwidth_bps)
    ()

(* -- the axis table -- *)

type 'a axis = {
  key : string;
  flag : string;
  docv : string;
  doc : string;
  default : string;
  parse : string -> ('a, string) Stdlib.result;
  json : 'a -> Json.t;
  label : string;
  show : 'a -> string;
  header : string;
  cell : 'a -> string;
  optional : bool;
  multiplies : t -> bool;
  check : t -> string option;
  get : t -> 'a;
  set : 'a -> t -> t;
}

type packed = Axis : 'a axis -> packed

let every _ = true

let named ~key ~flag ~docv ~doc ~default ?(label = "") ?(optional = true)
    ~parse ~name get set =
  {
    key; flag; docv; doc; default; parse; label; optional; get; set;
    json = (fun v -> Json.Str (name v));
    show = name;
    header = key;
    cell = name;
    multiplies = every;
    check = (fun _ -> None);
  }

(* A numeric axis: finite values satisfying [ok]; [check] adds
   cross-axis rules. *)
let numeric ~key ~flag ~docv ~doc ~default ~label ~show ?(header = label)
    ?(cell = show) ?(optional = true) ?(multiplies = every) ~ok ~expected
    ?(check = fun _ -> None) get set =
  {
    key; flag; docv; doc; default; label; show; header; cell; optional;
    multiplies; get; set;
    parse =
      (fun s ->
        Option.to_result ~none:(Printf.sprintf "invalid number %S" s)
          (float_of_string_opt s));
    json = (fun v -> Json.Num v);
    check =
      (fun job ->
        let v = get job in
        if Float.is_finite v && ok v then check job else Some expected);
  }

let pct v = Printf.sprintf "%g%%" (100.0 *. v)
let secs v = Printf.sprintf "%gs" v
let num v = Printf.sprintf "%g" v
let unit_interval v = v >= 0.0 && v <= 1.0
let in_unit = "must be within [0, 1]"

module Axes = struct
  let variant =
    named ~key:"variant" ~flag:"variants" ~docv:"V,V,..."
      ~doc:"Comma-separated TCP variants to sweep."
      ~default:"reno,newreno,sack,rr" ~optional:false
      ~parse:Core.Variant.of_string ~name:Core.Variant.name
      (fun j -> j.variant) (fun variant j -> { j with variant })

  let gateway =
    named ~key:"gateway" ~flag:"gateways" ~docv:"G,G,..."
      ~doc:
        "Comma-separated gateway disciplines, each droptail[:BUFFER] or \
         red[:BUFFER]."
      ~default:"droptail:8" ~optional:false ~parse:gateway_of_string
      ~name:gateway_name (fun j -> j.gateway)
      (fun gateway j -> { j with gateway })

  let topology =
    named ~key:"topology" ~flag:"topologies" ~docv:"T,T,..."
      ~doc:
        "Comma-separated topologies to sweep, each dumbbell, \
         parking-lot[:HOPS] (flows run end to end over HOPS chained \
         bottlenecks, HOPS <= 64) or fat-tree[:PODS] (--flows hosts per \
         pod, PODS <= 64)."
      ~default:"dumbbell" ~parse:topology_of_string ~name:topology_name
      (fun j -> j.topology) (fun topology j -> { j with topology })

  let uniform_loss =
    numeric ~key:"uniform_loss" ~flag:"loss" ~docv:"RATES"
      ~doc:"Comma-separated uniform data-loss rates injected at R1."
      ~default:"0.02" ~label:"loss" ~show:pct ~optional:false ~ok:unit_interval
      ~expected:in_unit (fun j -> j.uniform_loss)
      (fun uniform_loss j -> { j with uniform_loss })

  let ack_loss =
    numeric ~key:"ack_loss" ~flag:"ack-loss" ~docv:"RATES"
      ~doc:"Comma-separated reverse-path ACK-loss rates." ~default:"0."
      ~label:"ack" ~show:pct ~header:"ack loss" ~optional:false
      ~ok:unit_interval ~expected:in_unit (fun j -> j.ack_loss)
      (fun ack_loss j -> { j with ack_loss })

  let reorder =
    numeric ~key:"reorder" ~flag:"reorder" ~docv:"PROBS"
      ~doc:
        "Comma-separated packet-reordering probabilities at the bottleneck (0 \
         = off)."
      ~default:"0." ~label:"reorder" ~show:pct ~ok:unit_interval
      ~expected:in_unit (fun j -> j.reorder)
      (fun reorder j -> { j with reorder })

  let flap_period =
    numeric ~key:"flap_period" ~flag:"flap-period" ~docv:"SECONDS"
      ~doc:
        "Comma-separated trunk-outage periods in seconds (0 = off; each outage \
         lasts 300 ms)."
      ~default:"0." ~label:"flap" ~show:secs
      ~ok:(fun p -> p = 0.0 || p > flap_down_for)
      ~expected:(Printf.sprintf "must be 0 (off) or > %g" flap_down_for)
      (fun j -> j.flap_period) (fun flap_period j -> { j with flap_period })

  let cbr_share =
    numeric ~key:"cbr_share" ~flag:"cbr-share" ~docv:"SHARES"
      ~doc:
        "Comma-separated CBR cross-traffic loads as fractions of the \
         bottleneck capacity (0 = off)."
      ~default:"0." ~label:"cbr" ~show:pct ~ok:(fun s -> s >= 0.0)
      ~expected:"must be >= 0"
      ~check:(fun j ->
        let cbr = cbr_source j in
        match j.topology with
        | _ when j.cbr_share = 0.0 -> None
        | Fat_tree _ -> Some "needs a spare topology slot, which a fat tree lacks"
        | _
          when not
                 (Workload.Cbr.advances ~rate_bps:cbr.rate_bps
                    ~packet_bytes:cbr.packet_bytes ~until:j.duration) ->
          Some "too high: the CBR packet interval does not advance the clock"
        | _ -> None)
      (fun j -> j.cbr_share)
      (fun cbr_share j -> { j with cbr_share })

  let estimator =
    named ~key:"rto" ~flag:"rto" ~docv:"E,E,..."
      ~doc:
        "Comma-separated RTO estimators to sweep (jacobson, fixed, rfc793, \
         agile)."
      ~default:"jacobson" ~label:"rto" ~parse:Tcp.Rto.estimator_of_string
      ~name:Tcp.Rto.estimator_name (fun j -> j.estimator)
      (fun estimator j -> { j with estimator })

  let rrr_level =
    numeric ~key:"rrr_level" ~flag:"rrr-levels" ~docv:"LEVELS"
      ~doc:
        "Comma-separated rrr congestion levels; the axis multiplies only the \
         rrr variant (others ignore the field). 0.5 = the Reno half-cut."
      ~default:"0.5" ~label:"rrr" ~show:num
      ~multiplies:(fun j -> j.variant = Core.Variant.Rrr)
      ~ok:(fun l -> l > 0.0 && l < 1.0) ~expected:"must be inside (0, 1)"
      (fun j -> j.rrr_level) (fun rrr_level j -> { j with rrr_level })

  let asym_ratio =
    numeric ~key:"asym_ratio" ~flag:"asym-ratios" ~docv:"RATIOS"
      ~doc:
        "Comma-separated forward:reverse trunk rate ratios (0 = off; the \
         asym: spec clause; dumbbell topology only)."
      ~default:"0." ~label:"asym" ~show:num
      ~cell:(fun r -> if r > 0.0 then Printf.sprintf "%g:1" r else "-")
      ~ok:(fun r -> r = 0.0 || r >= 1.0) ~expected:"must be 0 (off) or >= 1"
      ~check:(fun j ->
        if j.asym_ratio > 0.0 && j.topology <> Dumbbell then
          Some "needs --topologies dumbbell"
        else None)
      (fun j -> j.asym_ratio) (fun asym_ratio j -> { j with asym_ratio })

  let handover_period =
    numeric ~key:"handover_period" ~flag:"handover-period" ~docv:"SECONDS"
      ~doc:
        "Comma-separated cellular-handover periods in seconds (0 = off; each \
         handover darkens the trunk for 400 ms, burst-drops the backlog and \
         resumes at the next cell rate)."
      ~default:"0." ~label:"handover" ~show:secs
      ~cell:(fun p -> if p > 0.0 then secs p else "-")
      ~ok:(fun p -> p = 0.0 || p > handover_gap)
      ~expected:(Printf.sprintf "must be 0 (off) or > %g" handover_gap)
      (fun j -> j.handover_period)
      (fun handover_period j -> { j with handover_period })
end

let axes =
  Axes.
    [
      Axis variant; Axis gateway; Axis topology; Axis uniform_loss;
      Axis ack_loss; Axis reorder; Axis flap_period; Axis cbr_share;
      Axis estimator; Axis rrr_level; Axis asym_ratio; Axis handover_period;
    ]

(* Point labels and report columns order the axes differently from the
   JSON (and from each other); an axis neither list names goes last. *)
let ordered keys =
  List.map (fun key -> List.find (fun (Axis a) -> a.key = key) axes) keys
  @ List.filter (fun (Axis a) -> not (List.mem a.key keys)) axes

let label_axes =
  ordered
    [
      "variant"; "gateway"; "uniform_loss"; "ack_loss"; "topology"; "reorder";
      "flap_period"; "cbr_share"; "rto"; "asym_ratio"; "handover_period";
      "rrr_level";
    ]

let column_axes =
  ordered
    [
      "variant"; "gateway"; "topology"; "uniform_loss"; "ack_loss"; "reorder";
      "flap_period"; "cbr_share"; "asym_ratio"; "handover_period"; "rto";
      "rrr_level";
    ]

let ( let* ) = Result.bind

let parse_values axis text =
  List.fold_right
    (fun token values ->
      let* values = values in
      let* v = axis.parse token in
      Ok (v :: values))
    (List.filter (( <> ) "") (String.split_on_char ',' text))
    (Ok [])

let visible axis job =
  axis.multiplies job
  && ((not axis.optional) || axis.get job <> axis.get default)

let cell axis job =
  if axis.multiplies job then axis.cell (axis.get job) else "-"

let capacity = function Droptail capacity | Red capacity -> capacity

let validate ?(flags = []) job =
  let fail flag value reason =
    invalid_arg (Printf.sprintf "--%s %s: %s" flag value reason)
  in
  (* The fields outside the table, named alike by run and sweep. *)
  List.iter
    (fun (flag, ok, value, reason) -> if not ok then fail flag value reason)
    [
      ( "duration",
        Float.is_finite job.duration && job.duration >= 0.0,
        Printf.sprintf "%g" job.duration,
        "must be finite and >= 0" );
      ("flows", job.flows >= 1, string_of_int job.flows, "must be >= 1");
      ("rwnd", job.rwnd >= 1, string_of_int job.rwnd, "must be >= 1");
      ( "buffer",
        capacity job.gateway >= 1,
        string_of_int (capacity job.gateway),
        "must be >= 1" );
    ];
  List.iter
    (fun (Axis a) ->
      Option.iter
        (fun reason ->
          fail
            (Option.value (List.assoc_opt a.key flags) ~default:a.flag)
            (match a.json (a.get job) with
            | Json.Str s -> s
            | v -> Json.to_string v)
            reason)
        (a.check job))
    axes

let point_label job =
  String.concat "/"
    (List.filter_map
       (fun (Axis a) ->
         if not (visible a job) then None
         else if a.label = "" then Some (a.show (a.get job))
         else Some (a.label ^ " " ^ a.show (a.get job)))
       label_axes)

(* Bump whenever the job layout or the semantics of a run change, so
   stale cache entries can never be mistaken for current ones. *)
let schema = "rr-sim-campaign/7"

let to_json job =
  Json.Obj
    (List.map (fun (Axis a) -> (a.key, a.json (a.get job))) axes
    @ [
        ("seed", Json.Str (Int64.to_string job.seed));
        ("duration", Json.Num job.duration);
        ("flows", Json.Num (float_of_int job.flows));
        ("rwnd", Json.Num (float_of_int job.rwnd));
      ])

let digest job =
  Digest.to_hex (Digest.string (schema ^ "\n" ^ Json.to_string (to_json job)))

type flow_metrics = {
  flow : int;
  goodput_bps : float;
  drops : int;
  timeouts : int;
  retransmits : int;
  fast_retransmits : int;
}

type result = {
  job : t;
  flow_metrics : flow_metrics list;
  aggregate_goodput_bps : float;
  jain : float;
  audit_checks : int;
  audit_violations : int;
}

let scenario ?(cross = []) job =
  let gateway =
    match job.gateway with
    | Droptail capacity -> Net.Dumbbell.Droptail { capacity }
    | Red capacity -> Net.Dumbbell.Red { capacity; params = Net.Red.paper_params }
  in
  let cross = (if job.cbr_share > 0.0 then [ cbr_source job ] else []) @ cross in
  let slots = job.flows + List.length cross in
  (* On a parking lot every job flow (and every cross source) runs end
     to end across all [hops] bottlenecks; on a fat tree each of the
     [pods] pods holds [flows] hosts. The runner's loss/fault knobs
     attach to the first bottleneck pair, as they do to the dumbbell
     trunks. *)
  let config flows = { (Net.Dumbbell.paper_config ~flows) with gateway } in
  let flows, topology =
    match job.topology with
    | Dumbbell -> (job.flows, Experiments.Scenario.dumbbell (config slots))
    | Parking_lot hops ->
      ( job.flows,
        Experiments.Scenario.parking_lot ~hops ~long_flows:slots
          ~cross_per_hop:0 ~config:(config slots) )
    | Fat_tree pods ->
      let total = pods * job.flows in
      let spec, endpoints =
        Net.Topology.fat_tree ~pods ~hosts_per_pod:job.flows
          ~config:(config total) ()
      in
      ( total,
        Experiments.Scenario.graph ~bottleneck:"up0" ~loss_link:"up0"
          ~ack_loss_link:"down0" ~flap_links:[ "up0"; "down0" ] ~spec
          ~endpoints () )
  in
  let params =
    {
      Tcp.Params.default with
      rwnd = job.rwnd;
      rto_estimator = job.estimator;
      rrr_level = job.rrr_level;
    }
  in
  let faults =
    let spec = Faults.Spec.none in
    let spec =
      if job.reorder > 0.0 then
        {
          spec with
          Faults.Spec.reorder =
            Some
              {
                Faults.Spec.prob = job.reorder;
                max_extra = Faults.Spec.default_reorder_extra;
              };
        }
      else spec
    in
    let spec =
      if job.flap_period > 0.0 then
        {
          spec with
          Faults.Spec.flaps =
            Some
              (Faults.Spec.Periodic
                 { period = job.flap_period; down_for = flap_down_for });
        }
      else spec
    in
    let spec =
      if job.handover_period > 0.0 then
        {
          spec with
          Faults.Spec.handover =
            Some
              {
                Faults.Spec.ho_period = job.handover_period;
                ho_gap = handover_gap;
                ho_levels = Faults.Spec.default_handover_levels;
              };
        }
      else spec
    in
    if job.asym_ratio > 0.0 then
      { spec with Faults.Spec.asym = Some job.asym_ratio }
    else spec
  in
  Experiments.Scenario.make ~topology
    ~flows:(List.init flows (fun _ -> Experiments.Scenario.flow job.variant))
    ~params ~seed:job.seed ~duration:job.duration
    ~uniform_loss:job.uniform_loss ~ack_loss:job.ack_loss ~faults ~cross ()

let measure job (t : Experiments.Scenario.t) =
  let flow_metrics =
    List.init (Array.length t.results) (fun flow ->
        let counters = Experiments.Scenario.counters t ~flow in
        {
          flow;
          goodput_bps =
            Experiments.Scenario.goodput_bps t ~flow ~t0:0.0 ~t1:job.duration;
          drops = Experiments.Scenario.drops t ~flow;
          timeouts = counters.Tcp.Counters.timeouts;
          retransmits = counters.Tcp.Counters.retransmits;
          fast_retransmits = counters.Tcp.Counters.fast_retransmits;
        })
  in
  let goodputs = List.map (fun m -> m.goodput_bps) flow_metrics in
  {
    job;
    flow_metrics;
    aggregate_goodput_bps = List.fold_left ( +. ) 0.0 goodputs;
    jain = Stats.Metrics.jain_index goodputs;
    audit_checks = Audit.Auditor.checks_run t.auditor;
    audit_violations = Audit.Auditor.violation_count t.auditor;
  }

let run job = measure job (Experiments.Scenario.run (scenario job))

let flow_metrics_to_json m =
  Json.Obj
    [
      ("flow", Json.Num (float_of_int m.flow));
      ("goodput_bps", Json.Num m.goodput_bps);
      ("drops", Json.Num (float_of_int m.drops));
      ("timeouts", Json.Num (float_of_int m.timeouts));
      ("retransmits", Json.Num (float_of_int m.retransmits));
      ("fast_retransmits", Json.Num (float_of_int m.fast_retransmits));
    ]

let result_to_json result =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("job", to_json result.job);
      ("flows", Json.List (List.map flow_metrics_to_json result.flow_metrics));
      ("aggregate_goodput_bps", Json.Num result.aggregate_goodput_bps);
      ("jain", Json.Num result.jain);
      ("audit_checks", Json.Num (float_of_int result.audit_checks));
      ("audit_violations", Json.Num (float_of_int result.audit_violations));
    ]

let field name coerce json =
  match Option.bind (Json.member name json) coerce with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or mistyped field %S" name)

(* Counts and goodputs are never negative: such a field was edited or
   torn, and the entry is a miss. *)
let non_negative zero coerce name json =
  let* v = field name coerce json in
  if v >= zero then Ok v else Error (Printf.sprintf "negative field %S" name)

let count = non_negative 0 Json.to_int
let goodput = non_negative 0.0 Json.to_float

let flow_metrics_of_json json =
  let* flow = count "flow" json in
  let* goodput_bps = goodput "goodput_bps" json in
  let* drops = count "drops" json in
  let* timeouts = count "timeouts" json in
  let* retransmits = count "retransmits" json in
  let* fast_retransmits = count "fast_retransmits" json in
  Ok { flow; goodput_bps; drops; timeouts; retransmits; fast_retransmits }

let result_of_json job json =
  let* stored_schema = field "schema" Json.to_str json in
  if stored_schema <> schema then
    Error (Printf.sprintf "schema mismatch: %S" stored_schema)
  else
    let* flows = field "flows" Json.to_list json in
    let* flow_metrics =
      List.fold_left
        (fun acc flow_json ->
          let* acc = acc in
          let* m = flow_metrics_of_json flow_json in
          Ok (m :: acc))
        (Ok []) flows
    in
    let* aggregate_goodput_bps = goodput "aggregate_goodput_bps" json in
    let* jain = field "jain" Json.to_float json in
    let* audit_checks = count "audit_checks" json in
    let* audit_violations = count "audit_violations" json in
    Ok
      {
        job;
        flow_metrics = List.rev flow_metrics;
        aggregate_goodput_bps;
        jain;
        audit_checks;
        audit_violations;
      }

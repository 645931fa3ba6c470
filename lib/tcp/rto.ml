type estimator = Jacobson | Fixed | Rfc793 | Agile

let estimators = [ Jacobson; Fixed; Rfc793; Agile ]

let estimator_name = function
  | Jacobson -> "jacobson"
  | Fixed -> "fixed"
  | Rfc793 -> "rfc793"
  | Agile -> "agile"

let estimator_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "jacobson" | "jk" -> Ok Jacobson
  | "fixed" -> Ok Fixed
  | "rfc793" | "mean" -> Ok Rfc793
  | "agile" -> Ok Agile
  | other ->
    Error
      (Printf.sprintf "unknown RTO estimator %S (expected %s)" other
         (String.concat ", " (List.map estimator_name estimators)))

type estimate = { mutable srtt : float; mutable rttvar : float }

type t = {
  min_rto : float;
  max_rto : float;
  initial_rto : float;
  algorithm : estimator;
  mutable estimate : estimate option;
  mutable backoff_factor : float;
}

let create ~min_rto ~max_rto ~initial_rto ?(estimator = Jacobson) () =
  if
    min_rto <= 0.0 || max_rto < min_rto || initial_rto < min_rto
    || initial_rto > max_rto
  then invalid_arg "Rto.create: inconsistent bounds";
  {
    min_rto;
    max_rto;
    initial_rto;
    algorithm = estimator;
    estimate = None;
    backoff_factor = 1.0;
  }

let estimator t = t.algorithm

(* Smoothing gains, as divisors: (mean gain, deviation gain). All the
   mean-tracking estimators share the RTT bookkeeping and differ only in
   how fast they move and how they turn the estimate into a timeout. *)
let gains = function
  | Jacobson | Fixed | Rfc793 -> (8.0, 4.0)
  | Agile -> (4.0, 2.0)

let sample t rtt =
  if rtt < 0.0 then invalid_arg "Rto.sample: negative RTT";
  (match t.estimate with
  | None -> t.estimate <- Some { srtt = rtt; rttvar = rtt /. 2.0 }
  | Some e ->
    let mean_gain, var_gain = gains t.algorithm in
    let error = rtt -. e.srtt in
    e.srtt <- e.srtt +. (error /. mean_gain);
    e.rttvar <- e.rttvar +. ((abs_float error -. e.rttvar) /. var_gain));
  t.backoff_factor <- 1.0

(* The estimator's timeout prediction from the current estimate, before
   any clamping or backoff — the layered family of Jain's divergence
   study: no adaptation at all, a mean-only exponential average with the
   RFC 793 safety factor, and mean-plus-deviation at two gain settings. *)
let predict t e =
  match t.algorithm with
  | Fixed -> t.initial_rto
  | Rfc793 -> 2.0 *. e.srtt
  | Jacobson | Agile -> e.srtt +. (4.0 *. e.rttvar)

let value t =
  (* [predict] restated inline: a float returned from a function is
     boxed, and this runs at every RTO-timer restart, so only the
     result may allocate. *)
  let predicted =
    match t.estimate with
    | None -> t.initial_rto
    | Some e -> (
      match t.algorithm with
      | Fixed -> t.initial_rto
      | Rfc793 -> 2.0 *. e.srtt
      | Jacobson | Agile -> e.srtt +. (4.0 *. e.rttvar))
  in
  (* Backoff doubles the effective (already clamped) timeout, so a
     1-second floor backs off 1, 2, 4, ... as classic TCP does. *)
  let base = Float.max t.min_rto predicted in
  Float.min t.max_rto (base *. t.backoff_factor)

let fine_timeout t =
  match t.estimate with
  | None -> t.initial_rto
  | Some e ->
    (* The raw prediction under the hard ceiling, but without [min_rto]
       or backoff: fine-grained retransmission exists precisely to act
       before the conservative coarse minimum. *)
    Float.min t.max_rto (predict t e)

let backoff t =
  t.backoff_factor <- Float.min (t.backoff_factor *. 2.0) 64.0

let srtt t = Option.map (fun e -> e.srtt) t.estimate

let rttvar t = Option.map (fun e -> e.rttvar) t.estimate

type step = { at : float; rate : float option; delay : float option }

type t = { steps : step list }

let steps t = t.steps

let is_empty t = t.steps = []

(* Each comparison is written so that NaN fails it. *)
let of_steps steps =
  let rec validate last = function
    | [] -> ()
    | { at; rate; delay } :: rest ->
      if not (at >= 0.0) then invalid_arg "Timeline.of_steps: negative time";
      if not (at > last) then
        invalid_arg "Timeline.of_steps: steps not strictly increasing";
      if rate = None && delay = None then
        invalid_arg "Timeline.of_steps: step changes neither rate nor delay";
      (match rate with
      | Some bps when not (bps > 0.0) ->
        invalid_arg "Timeline.of_steps: rate <= 0"
      | Some bps when not (Float.is_finite bps) ->
        invalid_arg "Timeline.of_steps: rate not finite"
      | _ -> ());
      (match delay with
      | Some d when not (d >= 0.0) ->
        invalid_arg "Timeline.of_steps: negative delay"
      | _ -> ());
      validate at rest
  in
  validate (-1.0) steps;
  { steps }

(* The textual form mirrors the Spec DSL's explicit-flap syntax: one
   '@'-prefixed step per change, fields '+'-separated, '-' for an
   unchanged field. "@2+500000@5+-+0.25" = rate to 500 kbps at t=2,
   delay to 250 ms at t=5. *)
let to_string t =
  (* %g where it round-trips, 17 digits where it would not; '+'
     separates fields, so exponents read 1e06, not 1e+06. *)
  let num v =
    let s = Printf.sprintf "%g" v in
    let s = if float_of_string s = v then s else Printf.sprintf "%.17g" v in
    String.concat "" (String.split_on_char '+' s)
  in
  let field = function None -> "-" | Some v -> num v in
  String.concat ""
    (List.map
       (fun { at; rate; delay } ->
         match delay with
         | None -> Printf.sprintf "@%s+%s" (num at) (field rate)
         | Some _ -> Printf.sprintf "@%s+%s+%s" (num at) (field rate) (field delay))
       t.steps)

let of_string s =
  let s = String.trim s in
  if s = "" then Ok { steps = [] }
  else if s.[0] <> '@' then
    Error
      (Printf.sprintf
         "invalid timeline %S (expected @T+RATE[+DELAY] steps, '-' = keep)" s)
  else
    let number name v =
      match float_of_string_opt v with
      | Some f when Float.is_finite f -> Ok f
      | _ -> Error (Printf.sprintf "invalid timeline %s %S" name v)
    in
    let field name v =
      if v = "-" then Ok None else Result.map Option.some (number name v)
    in
    let ( let* ) = Result.bind in
    let rec parse acc = function
      | [] -> Ok (List.rev acc)
      | chunk :: rest -> (
        match String.split_on_char '+' chunk with
        | [ at; rate ] | [ at; rate; _ ] as parts -> (
          let* at = number "time" at in
          let* rate = field "rate" rate in
          let* delay =
            match parts with
            | [ _; _; d ] -> field "delay" d
            | _ -> Ok None
          in
          parse ({ at; rate; delay } :: acc) rest)
        | _ ->
          Error
            (Printf.sprintf "invalid timeline step %S (expected T+RATE[+DELAY])"
               chunk))
    in
    match String.split_on_char '@' s with
    | "" :: chunks -> (
      let* steps = parse [] chunks in
      match of_steps steps with
      | t -> Ok t
      | exception Invalid_argument msg -> Error msg)
    | _ -> Error (Printf.sprintf "invalid timeline %S" s)

let fading ~period ~base_bps ~levels ~until () =
  if period <= 0.0 then invalid_arg "Timeline.fading: period <= 0";
  if base_bps <= 0.0 then invalid_arg "Timeline.fading: base_bps <= 0";
  if levels = [] then invalid_arg "Timeline.fading: no levels";
  List.iter
    (fun level ->
      if level <= 0.0 then invalid_arg "Timeline.fading: level <= 0")
    levels;
  let levels = Array.of_list levels in
  let rec build i at =
    if at >= until then []
    else
      { at; rate = Some (base_bps *. levels.(i mod Array.length levels));
        delay = None }
      :: build (i + 1) (at +. period)
  in
  of_steps (build 0 period)

(* A handover is an outage plus a rate step: the link cuts for [gap]
   seconds every [period] (queued packets are burst-lost under the
   usual `Drop_queued policy), and comes back at the *next cell's* rate
   — the level cycle evaluated at the restore instant. Both halves are
   plain data here; [Injector.flap_link] and [Injector.vary_link]
   compose them on a live link. Restores (and their rate steps) that
   straddle [until] are clamped exactly as in {!Schedule.periodic}. *)
let handover ~period ~gap ~base_bps ~levels ~until () =
  if gap <= 0.0 || gap >= period then
    invalid_arg "Timeline.handover: need 0 < gap < period";
  if base_bps <= 0.0 then invalid_arg "Timeline.handover: base_bps <= 0";
  if levels = [] then invalid_arg "Timeline.handover: no levels";
  List.iter
    (fun level ->
      if level <= 0.0 then invalid_arg "Timeline.handover: level <= 0")
    levels;
  let schedule =
    Schedule.periodic ~period ~down_for:gap ~until ()
  in
  let levels = Array.of_list levels in
  let steps =
    List.filteri (fun i _ -> i mod 2 = 1) (Schedule.transitions schedule)
    |> List.mapi (fun i { Schedule.at; _ } ->
           { at;
             rate = Some (base_bps *. levels.(i mod Array.length levels));
             delay = None })
  in
  (of_steps steps, schedule)

type flap =
  | Periodic of { period : float; down_for : float }
  | Random of { mean_up : float; mean_down : float }
  | Explicit of (float * float) list

type reorder = { prob : float; max_extra : float }

type fade = { fade_period : float; fade_levels : float list }

type handover = { ho_period : float; ho_gap : float; ho_levels : float list }

type t = {
  flaps : flap option;
  flap_policy : [ `Drop_queued | `Hold_queued ];
  reorder : reorder option;
  jitter : float option;
  reverse : bool;
  fade : fade option;
  handover : handover option;
  asym : float option;
}

let none =
  {
    flaps = None;
    flap_policy = `Hold_queued;
    reorder = None;
    jitter = None;
    reverse = false;
    fade = None;
    handover = None;
    asym = None;
  }

let is_none t =
  t.flaps = None && t.reorder = None && t.jitter = None && t.fade = None
  && t.handover = None && t.asym = None

let has_timeline t = t.fade <> None || t.handover <> None || t.asym <> None

let default_reorder_extra = 0.05

let default_handover_levels = [ 1.0; 0.5 ]

let flap_schedule t ~rng ~until =
  match t.flaps with
  | None -> None
  | Some (Periodic { period; down_for }) ->
    Some (Schedule.periodic ~period ~down_for ~until ())
  | Some (Random { mean_up; mean_down }) ->
    Some (Schedule.random ~rng ~mean_up ~mean_down ~until ())
  | Some (Explicit pairs) -> Some (Schedule.of_flaps pairs)

(* Render floats compactly ("4" not "4."): 12 significant digits, which
   keep typical CLI values tidy, and 17 only where 12 would not
   round-trip. '+' separates fields, so exponents read 1e300, not
   1e+300. *)
let float_str f =
  let s = Printf.sprintf "%.12g" f in
  let s = if float_of_string s = f then s else Printf.sprintf "%.17g" f in
  String.concat "" (String.split_on_char '+' s)

let to_string t =
  let clauses = ref [] in
  let add c = clauses := c :: !clauses in
  (* New hostile-network clauses are added first so they render *after*
     every pre-existing clause: specs without them keep their exact
     historical string (labels, cache keys). *)
  (match t.asym with
  | Some ratio -> add (Printf.sprintf "asym:%s" (float_str ratio))
  | None -> ());
  (match t.handover with
  | Some { ho_period; ho_gap; ho_levels } ->
    let levels =
      if ho_levels = default_handover_levels then ""
      else
        String.concat ""
          (List.map (fun l -> "+" ^ float_str l) ho_levels)
    in
    add
      (Printf.sprintf "handover:%s+%s%s" (float_str ho_period)
         (float_str ho_gap) levels)
  | None -> ());
  (match t.fade with
  | Some { fade_period; fade_levels } ->
    add
      (Printf.sprintf "fade:%s%s" (float_str fade_period)
         (String.concat ""
            (List.map (fun l -> "+" ^ float_str l) fade_levels)))
  | None -> ());
  if t.reverse then add "reverse";
  (match t.jitter with
  | Some m -> add (Printf.sprintf "jitter:%s" (float_str m))
  | None -> ());
  (match t.reorder with
  | Some { prob; max_extra } ->
    if max_extra = default_reorder_extra then
      add (Printf.sprintf "reorder:%s" (float_str prob))
    else
      add (Printf.sprintf "reorder:%s:%s" (float_str prob) (float_str max_extra))
  | None -> ());
  (* "drop" renders even without a flap clause, so that every parsed
     spec round-trips. *)
  (match t.flap_policy with `Drop_queued -> add "drop" | `Hold_queued -> ());
  (match t.flaps with
  | None -> ()
  | Some (Periodic { period; down_for }) ->
    add (Printf.sprintf "flap:%s+%s" (float_str period) (float_str down_for))
  | Some (Random { mean_up; mean_down }) ->
    add
      (Printf.sprintf "flap:rand:%s+%s" (float_str mean_up) (float_str mean_down))
  | Some (Explicit pairs) ->
    let body =
      List.map
        (fun (d, u) -> Printf.sprintf "@%s+%s" (float_str d) (float_str u))
        pairs
      |> String.concat ""
    in
    add (Printf.sprintf "flap:%s" body));
  String.concat "," !clauses

let ( let* ) = Result.bind

let parse_float ~what s =
  match float_of_string_opt s with
  | Some f when Float.is_finite f -> Ok f
  | _ ->
    Error (Printf.sprintf "faults: bad %s %S (expected a finite number)" what s)

let parse_pair ~what s =
  match String.split_on_char '+' s with
  | [ a; b ] ->
    let* a = parse_float ~what a in
    let* b = parse_float ~what b in
    Ok (a, b)
  | _ -> Error (Printf.sprintf "faults: expected A+B in %s, got %S" what s)

let parse_explicit body =
  (* body looks like "@2+2.5@8+9": leading '@', '@'-separated pairs. *)
  match String.split_on_char '@' body with
  | "" :: pairs when pairs <> [] ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | p :: rest ->
        let* pair = parse_pair ~what:"flap outage" p in
        go (pair :: acc) rest
    in
    let* pairs = go [] pairs in
    (match Schedule.of_flaps pairs with
    | _ -> Ok (Explicit pairs)
    | exception Invalid_argument message -> Error ("faults: " ^ message))
  | _ -> Error (Printf.sprintf "faults: bad explicit flap list %S" body)

let parse_floats ~what s =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | part :: rest ->
      let* f = parse_float ~what part in
      go (f :: acc) rest
  in
  go [] (String.split_on_char '+' s)

let parse_levels ~what levels =
  if levels = [] then Error (Printf.sprintf "faults: %s needs levels" what)
  else if List.exists (fun l -> l <= 0.0) levels then
    Error (Printf.sprintf "faults: %s levels must be > 0" what)
  else Ok levels

let parse_clause spec clause =
  match String.split_on_char ':' clause with
  | [ "" ] -> Ok spec
  | [ "drop" ] -> Ok { spec with flap_policy = `Drop_queued }
  | [ "hold" ] -> Ok { spec with flap_policy = `Hold_queued }
  | [ "reverse" ] -> Ok { spec with reverse = true }
  | [ "jitter"; m ] ->
    let* m = parse_float ~what:"jitter bound" m in
    if m <= 0.0 then Error "faults: jitter bound must be > 0"
    else Ok { spec with jitter = Some m }
  | [ "reorder"; p ] ->
    let* prob = parse_float ~what:"reorder prob" p in
    if prob < 0.0 || prob > 1.0 then Error "faults: reorder prob not in [0,1]"
    else
      Ok { spec with reorder = Some { prob; max_extra = default_reorder_extra } }
  | [ "reorder"; p; m ] ->
    let* prob = parse_float ~what:"reorder prob" p in
    let* max_extra = parse_float ~what:"reorder max extra" m in
    if prob < 0.0 || prob > 1.0 then Error "faults: reorder prob not in [0,1]"
    else if max_extra <= 0.0 then Error "faults: reorder max extra must be > 0"
    else Ok { spec with reorder = Some { prob; max_extra } }
  | [ "flap"; "rand"; pair ] ->
    let* mean_up, mean_down = parse_pair ~what:"flap:rand means" pair in
    if mean_up <= 0.0 || mean_down <= 0.0 then
      Error "faults: flap:rand means must be > 0"
    else Ok { spec with flaps = Some (Random { mean_up; mean_down }) }
  | [ "flap"; body ] when String.length body > 0 && body.[0] = '@' ->
    let* flaps = parse_explicit body in
    Ok { spec with flaps = Some flaps }
  | [ "flap"; pair ] ->
    let* period, down_for = parse_pair ~what:"flap period" pair in
    if not (0.0 < down_for && down_for < period) then
      Error "faults: flap needs 0 < DOWN < PERIOD"
    else Ok { spec with flaps = Some (Periodic { period; down_for }) }
  | [ "fade"; body ] -> (
    let* parts = parse_floats ~what:"fade" body in
    match parts with
    | period :: levels ->
      if period <= 0.0 then Error "faults: fade period must be > 0"
      else
        let* fade_levels = parse_levels ~what:"fade" levels in
        Ok { spec with fade = Some { fade_period = period; fade_levels } }
    | [] -> Error "faults: fade needs PERIOD+L1[+L2...]")
  | [ "handover"; body ] -> (
    let* parts = parse_floats ~what:"handover" body in
    match parts with
    | period :: gap :: levels ->
      if not (0.0 < gap && gap < period) then
        Error "faults: handover needs 0 < GAP < PERIOD"
      else
        let* ho_levels =
          match levels with
          | [] -> Ok default_handover_levels
          | levels -> parse_levels ~what:"handover" levels
        in
        Ok
          {
            spec with
            handover = Some { ho_period = period; ho_gap = gap; ho_levels };
          }
    | _ -> Error "faults: handover needs PERIOD+GAP[+L1+L2...]")
  | [ "asym"; ratio ] ->
    let* ratio = parse_float ~what:"asym ratio" ratio in
    if ratio < 1.0 then Error "faults: asym ratio must be >= 1"
    else Ok { spec with asym = Some ratio }
  | _ -> Error (Printf.sprintf "faults: unknown clause %S" clause)

let of_string s =
  let rec go spec = function
    | [] -> Ok spec
    | clause :: rest ->
      let* spec = parse_clause spec (String.trim clause) in
      go spec rest
  in
  go none (String.split_on_char ',' s)

type t = out_channel

let schema = "rr-sim-journal/1"

let event t ?(fields = []) ev =
  output_string t
    (Json.to_string
       (Json.Obj
          (("t", Json.Num (Unix.gettimeofday ())) :: ("ev", Json.Str ev)
          :: fields)));
  output_char t '\n';
  (* One flush per event: journal durability is the whole point — a
     record must survive the parent dying right after it is written. *)
  flush t

let int n = Json.Num (float_of_int n)

let open_channel ~append path =
  let flags =
    [ Open_wronly; Open_creat; (if append then Open_append else Open_trunc) ]
  in
  open_out_gen flags 0o644 path

let start ~path ~sweep ~total =
  let t = open_channel ~append:false path in
  event t "sweep_start"
    ~fields:
      [
        ("schema", Json.Str schema);
        ("sweep", Json.Str sweep);
        ("total", int total);
      ];
  t

let settled t ~digest =
  event t "job_settled" ~fields:[ ("digest", Json.Str digest) ]

let failed t ~digest ~failure =
  event t "job_failed"
    ~fields:[ ("digest", Json.Str digest); ("failure", Json.Str failure) ]

let retry t ~digest ~attempt ~failure =
  event t "job_retry"
    ~fields:
      [
        ("digest", Json.Str digest);
        ("attempt", int attempt);
        ("failure", Json.Str failure);
      ]

let finish t ~settled ~failed ~interrupted =
  event t (if interrupted then "sweep_interrupted" else "sweep_complete")
    ~fields:[ ("settled", int settled); ("failed", int failed) ]

let close t = close_out_noerr t

type snapshot = {
  sweep : string;
  settled : string list;
  failed : (string * string) list;
}

let read_lines path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec loop acc =
        match input_line ic with
        | line -> loop (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      loop [])

let load ~path =
  if not (Sys.file_exists path) then
    Error (Printf.sprintf "no journal at %s" path)
  else
    match read_lines path with
    | exception Sys_error message ->
      let prefix = path ^ ": " in
      Error
        (Printf.sprintf "cannot read journal %s: %s" path
           (if String.starts_with ~prefix message then
              String.sub message (String.length prefix)
                (String.length message - String.length prefix)
            else message))
    | lines ->
      let sweep = ref None in
      let entries : (string, (string, string) Stdlib.result) Hashtbl.t =
        Hashtbl.create 64
      in
      let order = ref [] in
      let record digest entry =
        if not (Hashtbl.mem entries digest) then order := digest :: !order;
        Hashtbl.replace entries digest entry
      in
      List.iter
        (fun line ->
          (* A parent killed mid-write can tear its last line; anything
             unparseable is skipped, never fatal. *)
          match Json.of_string line with
          | Error _ -> ()
          | Ok json -> (
            let str name = Option.bind (Json.member name json) Json.to_str in
            match str "ev" with
            | Some "sweep_start" -> (
              match str "sweep" with
              | Some digest -> sweep := Some digest
              | None -> ())
            | Some "job_settled" -> (
              match str "digest" with
              | Some digest -> record digest (Ok digest)
              | None -> ())
            | Some "job_failed" -> (
              match str "digest" with
              | Some digest ->
                record digest
                  (Error (Option.value ~default:"unknown" (str "failure")))
              | None -> ())
            | _ -> ()))
        lines;
      match !sweep with
      | None -> Error (Printf.sprintf "journal %s has no sweep_start record" path)
      | Some sweep ->
        let settled, failed =
          List.fold_left
            (fun (settled, failed) digest ->
              match Hashtbl.find entries digest with
              | Ok _ -> (digest :: settled, failed)
              | Error reason -> (settled, (digest, reason) :: failed))
            ([], []) !order
        in
        Ok { sweep; settled; failed }

let resume ~path ~sweep =
  match load ~path with
  | Error message -> Error message
  | Ok snapshot ->
    if snapshot.sweep <> sweep then
      Error
        (Printf.sprintf
           "journal %s belongs to a different sweep (journal %s, requested %s)"
           path snapshot.sweep sweep)
    else begin
      let t = open_channel ~append:true path in
      event t "sweep_resume"
        ~fields:
          [
            ("sweep", Json.Str sweep);
            ("settled", int (List.length snapshot.settled));
            ("failed", int (List.length snapshot.failed));
          ];
      Ok (t, snapshot)
    end

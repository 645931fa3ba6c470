let default_jobs () = Domain.recommended_domain_count ()

(* -- execution backends -- *)

type backend = Serial | Forked

(* -- failure taxonomy -- *)

type failure =
  | Crashed of string
  | Timed_out of float
  | Gave_up of int

let failure_to_string = function
  | Crashed reason -> Printf.sprintf "crashed: %s" reason
  | Timed_out deadline -> Printf.sprintf "timed out after %gs" deadline
  | Gave_up attempts -> Printf.sprintf "gave up after %d attempts" attempts

type 'b outcome = Settled of 'b | Failed of failure | Not_run

(* -- supervision policy -- *)

type policy = { timeout : float option; retries : int; backoff : float }

let default_policy = { timeout = None; retries = 0; backoff = 0.5 }

(* -- deterministic chaos injection -- *)

type chaos_action = Crash | Hang | Truncate

type chaos_plan = index:int -> attempt:int -> chaos_action option

let chaos : chaos_plan option ref = ref None
let chaos_env = "RR_SIM_POOL_CHAOS"

let chaos_of_string spec =
  let ( let* ) = Result.bind in
  let parse_action name =
    match String.lowercase_ascii (String.trim name) with
    | "crash" -> Ok Crash
    | "hang" -> Ok Hang
    | "trunc" | "truncate" -> Ok Truncate
    | other -> Error (Printf.sprintf "unknown chaos action %S" other)
  in
  let parse_index s =
    match int_of_string_opt s with
    | Some index when index >= 0 -> Ok index
    | _ -> Error (Printf.sprintf "invalid chaos job index %S" s)
  in
  let parse_target action target =
    let target = String.trim target in
    let length = String.length target in
    if length = 0 then Error "empty chaos job index"
    else if target.[length - 1] = '*' then
      let* index = parse_index (String.sub target 0 (length - 1)) in
      Ok (index, `Every, action)
    else
      match String.index_opt target '@' with
      | Some at -> (
        let* index = parse_index (String.sub target 0 at) in
        match int_of_string_opt (String.sub target (at + 1) (length - at - 1)) with
        | Some attempt when attempt >= 1 -> Ok (index, `Only attempt, action)
        | _ -> Error (Printf.sprintf "invalid chaos attempt in %S" target))
      | None ->
        let* index = parse_index target in
        Ok (index, `First, action)
  in
  let parse_clause clause =
    match String.index_opt clause ':' with
    | None ->
      Error
        (Printf.sprintf "invalid chaos clause %S (expected ACTION:JOB[,JOB...])"
           clause)
    | Some colon ->
      let* action = parse_action (String.sub clause 0 colon) in
      let targets =
        String.split_on_char ','
          (String.sub clause (colon + 1) (String.length clause - colon - 1))
      in
      List.fold_left
        (fun acc target ->
          let* acc = acc in
          let* rule = parse_target action target in
          Ok (rule :: acc))
        (Ok []) targets
  in
  let* rules =
    List.fold_left
      (fun acc clause ->
        let* acc = acc in
        if String.trim clause = "" then Ok acc
        else
          let* rules = parse_clause clause in
          Ok (acc @ List.rev rules))
      (Ok [])
      (String.split_on_char ';' spec)
  in
  if rules = [] then Error "empty chaos spec"
  else
    Ok
      (fun ~index ~attempt ->
        List.find_map
          (fun (target, filter, action) ->
            if target <> index then None
            else
              match filter with
              | `First -> if attempt = 1 then Some action else None
              | `Every -> Some action
              | `Only only -> if attempt = only then Some action else None)
          rules)

let resolve_chaos () =
  match !chaos with
  | Some _ as plan -> plan
  | None -> (
    match Sys.getenv_opt chaos_env with
    | None -> None
    | Some spec -> (
      match chaos_of_string spec with
      | Ok plan -> Some plan
      | Error message ->
        invalid_arg (Printf.sprintf "%s: %s" chaos_env message)))

(* -- EINTR-safe primitives: with SIGINT/SIGTERM handlers installed,
   signal delivery during a sweep is expected, and must never abort a
   collect mid-flight. -- *)

let rec reap pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap pid

(* The longest the supervisor blocks, so that a stop request set
   without a signal, and so without EINTR, is still seen. *)
let stop_poll = 0.5

(* On EINTR, return no ready descriptors and let the caller's loop
   recompute deadlines (and notice a stop request) before blocking
   again. *)
let select_read fds timeout =
  match Unix.select fds [] [] timeout with
  | ready, _, _ -> ready
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []

let signal_name signal =
  if signal = Sys.sigkill then "SIGKILL"
  else if signal = Sys.sigterm then "SIGTERM"
  else if signal = Sys.sigint then "SIGINT"
  else if signal = Sys.sigsegv then "SIGSEGV"
  else if signal = Sys.sigabrt then "SIGABRT"
  else Printf.sprintf "signal %d" signal

(* -- supervision book-keeping --

   The attempts waiting to start (each not before its backoff ends),
   every item's terminal state, and the policy's verdict on a finished
   attempt: settle the item, or queue a backed-off retry. *)

type pending = { p_index : int; p_attempt : int; not_before : float }

let backoff_delay policy attempt =
  policy.backoff *. (2.0 ** float_of_int (attempt - 1))

let ledger ~policy ~on_done ~on_retry ~on_settled total =
  let statuses = Array.make total None in
  let pending =
    ref
      (List.init total (fun i ->
           { p_index = i; p_attempt = 1; not_before = neg_infinity }))
  in
  let settled = ref 0 in
  let settle index outcome =
    statuses.(index) <-
      Some (match outcome with Ok v -> Settled v | Error f -> Failed f);
    incr settled;
    on_settled ~index outcome;
    on_done !settled
  in
  let resolve ~index ~attempt = function
    | Ok value -> settle index (Ok value)
    | Error failure ->
      if attempt <= policy.retries then begin
        on_retry ~index ~attempt failure;
        pending :=
          !pending
          @ [
              {
                p_index = index;
                p_attempt = attempt + 1;
                not_before =
                  Unix.gettimeofday () +. backoff_delay policy attempt;
              };
            ]
      end
      else if attempt = 1 then settle index (Error failure)
      else settle index (Error (Gave_up attempt))
  in
  let outcomes () =
    Array.to_list
      (Array.map (function Some status -> status | None -> Not_run) statuses)
  in
  (pending, resolve, outcomes)

(* -- the fork pool --

   Up to [jobs] persistent workers, forked on demand and reused for
   every attempt of one [run] call. The supervisor writes an (index,
   attempt) task on an idle worker's task pipe and reads the Marshal'd
   outcome back from its result pipe, so a job costs two pipe transfers
   rather than a fork, while concurrent jobs still run in separate
   processes. A worker that dies, tears its payload or passes its
   deadline is SIGKILLed, reaped and forgotten; the next attempt that
   finds no idle worker forks a replacement. *)

type task = { index : int; attempt : int; deadline : float option }

type worker = {
  pid : int;
  tasks : Unix.file_descr;  (* write end: one task record per attempt *)
  results : Unix.file_descr;  (* read end: one Marshal'd outcome per task *)
  channel : in_channel;  (* over [results] *)
  mutable busy : task option;
}

(* A task record is (index, attempt) as two big-endian 32-bit ints.
   Eight bytes is below PIPE_BUF, so a write is atomic: it lands whole
   or fails whole. *)
let task_size = 8

let rec write_task fd ~index ~attempt =
  let record = Bytes.create task_size in
  Bytes.set_int32_be record 0 (Int32.of_int index);
  Bytes.set_int32_be record 4 (Int32.of_int attempt);
  match Unix.write fd record 0 task_size with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) ->
    write_task fd ~index ~attempt

(* [None] at end of file: the supervisor closed the pipe. *)
let read_task fd record =
  let rec fill off =
    if off = task_size then
      Some
        ( Int32.to_int (Bytes.get_int32_be record 0),
          Int32.to_int (Bytes.get_int32_be record 4) )
    else
      match Unix.read fd record off (task_size - off) with
      | 0 -> None
      | n -> fill (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill off
  in
  fill 0

(* A worker's whole life: run each task it is sent until the supervisor
   closes the task pipe. The chaos hook fires as the attempt arrives,
   and reproduces the real failure, not a polite simulation of it:
   Crash dies by SIGKILL, Hang never reports, Truncate tears the payload
   and exits. *)
let serve ~plan ~tasks ~results f items =
  let oc = Unix.out_channel_of_descr results in
  let record = Bytes.create task_size in
  let rec loop () =
    match read_task tasks record with
    | None -> ()
    | Some (index, attempt) -> (
      let action =
        match plan with None -> None | Some plan -> plan ~index ~attempt
      in
      (match action with
      | Some Crash -> Unix.kill (Unix.getpid ()) Sys.sigkill
      | Some Hang ->
        while true do
          Unix.sleepf 3600.0
        done
      | Some Truncate | None -> ());
      let value =
        try Ok (f items.(index)) with e -> Error (Printexc.to_string e)
      in
      match action with
      | Some Truncate ->
        let payload = Marshal.to_string value [] in
        output_substring oc payload 0 (String.length payload - 1);
        flush oc
      | _ ->
        Marshal.to_channel oc value [];
        flush oc;
        loop ())
  in
  loop ()

(* Why a worker ended without a whole result. *)
let death = function
  | Unix.WSIGNALED signal -> Printf.sprintf "killed by %s" (signal_name signal)
  | Unix.WEXITED 0 -> "truncated result payload"
  | Unix.WEXITED code -> Printf.sprintf "exited with status %d" code
  | Unix.WSTOPPED signal -> Printf.sprintf "stopped by %s" (signal_name signal)

(* The tests' in-process reference: the fork pool's ledger drained in
   input order in the calling process, each item's retries before the
   next item starts. *)
let run_serial ~policy ~stop ~on_done ~on_retry ~on_settled ~on_worker f items =
  let pending, resolve, outcomes =
    ledger ~policy ~on_done ~on_retry ~on_settled (List.length items)
  in
  List.iteri
    (fun index item ->
      let rec drain () =
        match List.find_opt (fun p -> p.p_index = index) !pending with
        | Some next when not (stop ()) ->
          pending := List.filter (fun p -> p != next) !pending;
          (* In input order, the first attempt to run is item 0's. *)
          if index = 0 && next.p_attempt = 1 then on_worker 1;
          Unix.sleepf (Float.max 0.0 (next.not_before -. Unix.gettimeofday ()));
          resolve ~index ~attempt:next.p_attempt
            (try Ok (f item) with e -> Error (Crashed (Printexc.to_string e)));
          drain ()
        | _ -> ()
      in
      drain ())
    items;
  outcomes ()

let run_forked ~jobs ~policy ~stop ~on_done ~on_retry ~on_settled ~on_worker f
    items =
  let plan = resolve_chaos () in
  let items = Array.of_list items in
  let pending, resolve, outcomes =
    ledger ~policy ~on_done ~on_retry ~on_settled (Array.length items)
  in
  let workers = ref [] in
  let width = ref jobs in
  let spawn () =
    (* Anything buffered in the supervisor would otherwise be flushed a
       second time by the worker's channels. *)
    flush stdout;
    flush stderr;
    let task_r, task_w = Unix.pipe () in
    let result_r, result_w =
      try Unix.pipe ()
      with e ->
        Unix.close task_r;
        Unix.close task_w;
        raise e
    in
    match Unix.fork () with
    | 0 ->
      (* Close the supervisor's ends, this worker's and its siblings',
         so each pipe ends when its one worker does; leave through
         [Unix._exit], which skips the at_exit flushes of buffers
         inherited from the supervisor. *)
      let code =
        try
          Unix.close task_w;
          Unix.close result_r;
          List.iter
            (fun w ->
              Unix.close w.tasks;
              Unix.close w.results)
            !workers;
          serve ~plan ~tasks:task_r ~results:result_w f items;
          0
        with _ -> 2
      in
      Unix._exit code
    | pid ->
      Unix.close task_r;
      Unix.close result_w;
      let worker =
        {
          pid;
          tasks = task_w;
          results = result_r;
          channel = Unix.in_channel_of_descr result_r;
          busy = None;
        }
      in
      workers := worker :: !workers;
      on_worker (List.length !workers);
      worker
    | exception e ->
      List.iter Unix.close [ task_r; task_w; result_r; result_w ];
      raise e
  in
  (* SIGKILL (a no-op on the dead), reap and forget a worker. *)
  let retire worker =
    workers := List.filter (fun w -> w != worker) !workers;
    (try Unix.kill worker.pid Sys.sigkill with Unix.Unix_error _ -> ());
    let status = reap worker.pid in
    (try Unix.close worker.tasks with Unix.Unix_error _ -> ());
    close_in_noerr worker.channel;
    status
  in
  let dispatch worker { p_index = index; p_attempt = attempt; _ } =
    write_task worker.tasks ~index ~attempt;
    let deadline =
      Option.map (fun t -> Unix.gettimeofday () +. t) policy.timeout
    in
    worker.busy <- Some { index; attempt; deadline }
  in
  (* With SIGPIPE ignored, a worker that died while idle fails the write
     with EPIPE; the attempt never started, so it goes back to the front
     of the queue. *)
  let hand worker next =
    pending := List.filter (fun p -> p != next) !pending;
    try dispatch worker next
    with Unix.Unix_error (Unix.EPIPE, _, _) ->
      ignore (retire worker);
      pending := next :: !pending
  in
  (* Hand every mature pending attempt to an idle worker, forking one
     while the pool is below strength. A refused fork (out of descriptors
     or processes) lowers the strength to the workers alive, which keeps
     the two descriptors the last good fork freed for cache and journal
     writes; with no worker alive, the attempt fails. *)
  let rec start now =
    match List.find_opt (fun p -> p.not_before <= now) !pending with
    | None -> ()
    | Some next -> (
      let alive = List.length !workers in
      match List.find_opt (fun w -> w.busy = None) !workers with
      | Some idle ->
        hand idle next;
        start now
      | None when alive < !width -> (
        match spawn () with
        | worker ->
          hand worker next;
          start now
        | exception Unix.Unix_error _ when alive > 0 -> width := alive
        | exception Unix.Unix_error (error, call, _) ->
          pending := List.filter (fun p -> p != next) !pending;
          resolve ~index:next.p_index ~attempt:next.p_attempt
            (Error
               (Crashed
                  (Printf.sprintf "cannot start a worker: %s: %s" call
                     (Unix.error_message error))));
          start now)
      | None -> ())
  in
  let receive worker task =
    match (Marshal.from_channel worker.channel : ('b, string) result) with
    | value ->
      worker.busy <- None;
      (task, Result.map_error (fun message -> Crashed message) value)
    (* End of file, or a torn payload ("input_value: truncated object"):
       either way the pipe ended mid-object, and the worker's status
       says why. *)
    | exception (End_of_file | Failure _ | Sys_error _) ->
      (task, Error (Crashed (death (retire worker))))
  in
  let conclude ({ index; attempt; _ }, outcome) =
    resolve ~index ~attempt outcome
  in
  let busy () =
    List.filter_map
      (fun w -> Option.map (fun task -> (w, task)) w.busy)
      !workers
  in
  let expire (worker, task) =
    (* If the result landed just as the deadline hit, prefer it. *)
    if select_read [ worker.results ] 0.0 <> [] then
      conclude (receive worker task)
    else begin
      ignore (retire worker);
      let deadline = Option.value ~default:0.0 policy.timeout in
      conclude (task, Error (Timed_out deadline))
    end
  in
  (* Idle workers read end of file and leave; busy ones are killed. *)
  let shutdown () =
    let all = !workers in
    workers := [];
    List.iter
      (fun w ->
        (try Unix.close w.tasks with Unix.Unix_error _ -> ());
        if w.busy <> None then
          try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ())
      all;
    List.iter
      (fun w ->
        (try ignore (reap w.pid) with Unix.Unix_error _ -> ());
        close_in_noerr w.channel)
      all
  in
  let sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect
    ~finally:(fun () ->
      shutdown ();
      Sys.set_signal Sys.sigpipe sigpipe)
    (fun () ->
      while (not (stop ())) && (!pending <> [] || busy () <> []) do
        start (Unix.gettimeofday ());
        let running = busy () in
        if !pending <> [] || running <> [] then begin
          (* Sleep until a worker reports, the nearest deadline expires,
             a backed-off retry matures while a worker could take it, or
             [stop_poll] passes. An attempt that waits for a busy worker
             wakes no one: the result that frees the worker will. *)
          let can_start =
            List.length !workers < !width
            || List.exists (fun w -> w.busy = None) !workers
          in
          let horizon =
            List.fold_left
              (fun acc (_, task) ->
                match task.deadline with
                | Some deadline -> Float.min deadline acc
                | None -> acc)
              (if can_start then
                 List.fold_left
                   (fun acc p -> Float.min p.not_before acc)
                   infinity !pending
               else infinity)
              running
          in
          let timeout =
            Float.max 0.0
              (Float.min stop_poll (horizon -. Unix.gettimeofday ()))
          in
          let ready =
            select_read (List.map (fun (w, _) -> w.results) running) timeout
          in
          let received =
            List.map
              (fun (w, task) -> receive w task)
              (List.filter (fun (w, _) -> List.mem w.results ready) running)
          in
          (* Freed workers take their next attempts before the
             supervisor settles (stores, journals) what they sent. *)
          start (Unix.gettimeofday ());
          List.iter conclude received;
          let now = Unix.gettimeofday () in
          List.iter expire
            (List.filter
               (fun (_, task) ->
                 match task.deadline with
                 | Some deadline -> deadline <= now
                 | None -> false)
               (busy ()))
        end
      done);
  outcomes ()

let run ~jobs ?backend ?(policy = default_policy) ?(stop = fun () -> false)
    ?(on_done = fun _ -> ()) ?(on_retry = fun ~index:_ ~attempt:_ _ -> ())
    ?(on_settled = fun ~index:_ _ -> ()) ?(on_worker = fun _ -> ()) f items =
  match Option.value backend ~default:Forked with
  | Serial ->
    run_serial ~policy ~stop ~on_done ~on_retry ~on_settled ~on_worker f items
  | Forked ->
    run_forked ~jobs:(max 1 jobs) ~policy ~stop ~on_done ~on_retry ~on_settled
      ~on_worker f items

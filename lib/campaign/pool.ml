let default_jobs () = Domain.recommended_domain_count ()

(* -- execution backends -- *)

type backend = Serial | Forked | Domains

let backend_name = function
  | Serial -> "serial"
  | Forked -> "fork"
  | Domains -> "domains"

let backend_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "serial" -> Ok Serial
  | "fork" | "forked" -> Ok Forked
  | "domain" | "domains" -> Ok Domains
  | other -> Error (Printf.sprintf "unknown pool backend %S" other)

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

(* -- the supervised pool -- *)

type 'b worker = {
  pid : int;
  index : int;
  attempt : int;
  channel : in_channel;
  deadline : float option;  (* absolute wall clock, [gettimeofday] basis *)
}

type pending = { p_index : int; p_attempt : int; not_before : float }

let backoff_delay policy attempt =
  policy.backoff *. (2.0 ** float_of_int (attempt - 1))

let run_serial ~policy ~stop ~on_done ~on_retry ~on_settled f items =
  let settled = ref 0 in
  List.mapi
    (fun index item ->
      if stop () then Not_run
      else begin
        let rec attempt n =
          match f item with
          | value -> Settled value
          | exception e ->
            let failure = Crashed (Printexc.to_string e) in
            if n <= policy.retries && not (stop ()) then begin
              on_retry ~index ~attempt:n failure;
              Unix.sleepf (backoff_delay policy n);
              attempt (n + 1)
            end
            else if n = 1 then Failed failure
            else Failed (Gave_up n)
        in
        let outcome = attempt 1 in
        (match outcome with
        | Settled value -> on_settled ~index (Ok value)
        | Failed failure -> on_settled ~index (Error failure)
        | Not_run -> ());
        incr settled;
        on_done !settled;
        outcome
      end)
    items

let run_forked ~jobs ~policy ~stop ~on_done ~on_retry ~on_settled f items =
  let plan = resolve_chaos () in
  let items = Array.of_list items in
  let total = Array.length items in
  let statuses : 'b outcome option array = Array.make total None in
  let running : (Unix.file_descr, 'b worker) Hashtbl.t = Hashtbl.create 16 in
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
  let spawn { p_index = index; p_attempt = attempt; _ } =
    (* Anything buffered in the parent would otherwise be flushed a
       second time by the child's channels. *)
    flush stdout;
    flush stderr;
    let action =
      match plan with None -> None | Some plan -> plan ~index ~attempt
    in
    let read_fd, write_fd = Unix.pipe () in
    match Unix.fork () with
    | 0 ->
      (* Child: run the one task, ship the outcome, and leave without
         running at_exit handlers (Unix._exit skips the inherited
         buffer flushes). Chaos actions reproduce the real-world
         failure, not a polite simulation of it: Crash dies by SIGKILL
         mid-job, Hang never reports, Truncate tears the payload. *)
      Unix.close read_fd;
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
      let oc = Unix.out_channel_of_descr write_fd in
      (match action with
      | Some Truncate ->
        let payload = Marshal.to_string value [] in
        output_substring oc payload 0 (String.length payload - 1)
      | _ -> Marshal.to_channel oc value []);
      flush oc;
      Unix._exit 0
    | pid ->
      Unix.close write_fd;
      let deadline =
        Option.map (fun t -> Unix.gettimeofday () +. t) policy.timeout
      in
      Hashtbl.replace running read_fd
        {
          pid;
          index;
          attempt;
          channel = Unix.in_channel_of_descr read_fd;
          deadline;
        }
  in
  let resolve worker = function
    | Ok value -> settle worker.index (Ok value)
    | Error failure ->
      if worker.attempt <= policy.retries then begin
        on_retry ~index:worker.index ~attempt:worker.attempt failure;
        pending :=
          !pending
          @ [
              {
                p_index = worker.index;
                p_attempt = worker.attempt + 1;
                not_before =
                  Unix.gettimeofday () +. backoff_delay policy worker.attempt;
              };
            ]
      end
      else if worker.attempt = 1 then settle worker.index (Error failure)
      else settle worker.index (Error (Gave_up worker.attempt))
  in
  let collect fd =
    match Hashtbl.find_opt running fd with
    | None -> ()
    | Some worker ->
      Hashtbl.remove running fd;
      let payload =
        match (Marshal.from_channel worker.channel : ('b, string) result) with
        | value -> Some value
        | exception End_of_file -> None
        (* A torn payload ("input_value: truncated object") means the
           worker died mid-write: the same crash as an empty pipe. *)
        | exception Failure _ -> None
      in
      close_in_noerr worker.channel;
      let status = reap worker.pid in
      let outcome =
        match (payload, status) with
        | Some (Ok value), _ -> Ok value
        | Some (Error message), _ -> Error (Crashed message)
        | None, Unix.WSIGNALED signal ->
          Error (Crashed (Printf.sprintf "killed by %s" (signal_name signal)))
        | None, Unix.WEXITED 0 -> Error (Crashed "truncated result payload")
        | None, Unix.WEXITED code ->
          Error (Crashed (Printf.sprintf "exited with status %d" code))
        | None, Unix.WSTOPPED signal ->
          Error (Crashed (Printf.sprintf "stopped by %s" (signal_name signal)))
      in
      resolve worker outcome
  in
  let kill_and_reap worker =
    (try Unix.kill worker.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (reap worker.pid);
    close_in_noerr worker.channel
  in
  let expire fd worker =
    (* If the result landed just as the deadline hit, prefer it. *)
    if select_read [ fd ] 0.0 <> [] then collect fd
    else begin
      Hashtbl.remove running fd;
      kill_and_reap worker;
      resolve worker
        (Error (Timed_out (Option.value ~default:0.0 policy.timeout)))
    end
  in
  let abort () =
    let workers = Hashtbl.fold (fun _ w acc -> w :: acc) running [] in
    Hashtbl.reset running;
    List.iter kill_and_reap workers
  in
  Fun.protect ~finally:abort (fun () ->
      while (not (stop ())) && (!pending <> [] || Hashtbl.length running > 0) do
        let now = Unix.gettimeofday () in
        (* Start every mature pending attempt while capacity allows. *)
        let rec start () =
          if Hashtbl.length running < jobs then
            match List.find_opt (fun p -> p.not_before <= now) !pending with
            | Some next ->
              pending := List.filter (fun p -> p != next) !pending;
              spawn next;
              start ()
            | None -> ()
        in
        start ();
        if !pending <> [] || Hashtbl.length running > 0 then begin
          let fds = Hashtbl.fold (fun fd _ acc -> fd :: acc) running [] in
          (* Sleep until a worker reports, the nearest deadline expires,
             or the nearest backed-off retry matures. *)
          let horizon =
            Hashtbl.fold
              (fun _ worker acc ->
                match worker.deadline with
                | Some deadline -> Float.min deadline acc
                | None -> acc)
              running
              (List.fold_left
                 (fun acc p -> Float.min p.not_before acc)
                 infinity !pending)
          in
          let timeout =
            if horizon = infinity then if fds = [] then 0.05 else -1.0
            else Float.max 0.0 (horizon -. Unix.gettimeofday ())
          in
          List.iter collect (select_read fds timeout);
          let now = Unix.gettimeofday () in
          let expired =
            Hashtbl.fold
              (fun fd worker acc ->
                match worker.deadline with
                | Some deadline when deadline <= now -> (fd, worker) :: acc
                | _ -> acc)
              running []
          in
          List.iter (fun (fd, worker) -> expire fd worker) expired
        end
      done);
  Array.to_list
    (Array.map (function Some status -> status | None -> Not_run) statuses)

(* -- the domain-sharded pool --

   A fixed team of [jobs] worker domains takes (index, attempt) tasks
   from a shared ready queue and pushes results onto a shared result
   queue, both guarded by one mutex; job specs live in a shared array
   the workers read in place — no fork, no Marshal. The supervisor
   (the calling domain) still owns all policy: it matures backed-off
   retries into the ready queue, starts each attempt's deadline when a
   worker stamps the task as picked up, and settles outcomes in input
   order. A byte over a pipe accompanies every pushed result so the
   supervisor can block in [select] with the same deadline horizon the
   fork backend uses ([Condition] has no timed wait).

   The semantic difference from fork: a domain cannot be SIGKILLed.
   An attempt that outlives its deadline is {e abandoned} — reported
   [Timed_out] exactly like fork — but its worker keeps running inside
   [f]. The supervisor spawns a replacement domain so pool capacity
   survives a genuinely hung job; if the abandoned attempt later
   finishes after all, its result is discarded and one surplus worker
   retires at its next queue visit. Chaos actions map accordingly:
   [Hang] hangs the worker cooperatively (recoverable only via a
   deadline, as with fork), while [Crash] and [Truncate] — process
   death and a torn Marshal payload, neither of which exists in-domain
   — degrade to an immediately failed attempt with a distinguishing
   message. *)

type 'b domain_result = {
  r_index : int;
  r_attempt : int;
  r_value : ('b, string) result;
}

let rec notify_byte fd =
  match Unix.write_substring fd "!" 0 1 with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> notify_byte fd

let run_domains ~jobs ~policy ~stop ~on_done ~on_retry ~on_settled f items =
  let plan = resolve_chaos () in
  let items = Array.of_list items in
  let total = Array.length items in
  let statuses : 'b outcome option array = Array.make total None in
  let m = Mutex.create () in
  let work_cond = Condition.create () in
  let ready : (int * int) Queue.t = Queue.create () in
  let results : 'b domain_result Queue.t = Queue.create () in
  let started : (int * int, float) Hashtbl.t = Hashtbl.create 16 in
  let shutdown = ref false in
  let retire = ref 0 in
  let notify_rd, notify_wr = Unix.pipe ~cloexec:true () in
  let worker () =
    let rec loop () =
      Mutex.lock m;
      let rec await () =
        if !shutdown then None
        else if !retire > 0 then begin
          decr retire;
          None
        end
        else if Queue.is_empty ready then begin
          Condition.wait work_cond m;
          await ()
        end
        else begin
          let task = Queue.pop ready in
          (* The attempt's deadline starts now, not when it was queued
             behind other work — same basis as fork, which forks (and
             stamps) only when capacity frees up. *)
          Hashtbl.replace started task (Unix.gettimeofday ());
          Some task
        end
      in
      let task = await () in
      Mutex.unlock m;
      match task with
      | None -> ()
      | Some (index, attempt) ->
        let action =
          match plan with None -> None | Some plan -> plan ~index ~attempt
        in
        let value =
          match action with
          | Some Crash -> Error "chaos crash (in-domain: no process to kill)"
          | Some Truncate ->
            Error "chaos truncate (in-domain: no payload to tear)"
          | Some Hang ->
            while true do
              Unix.sleepf 3600.0
            done;
            assert false
          | None -> (
            try Ok (f items.(index)) with e -> Error (Printexc.to_string e))
        in
        Mutex.lock m;
        Queue.push { r_index = index; r_attempt = attempt; r_value = value }
          results;
        Mutex.unlock m;
        (try notify_byte notify_wr with Unix.Unix_error _ -> ());
        loop ()
    in
    loop ()
  in
  let domains = ref [] in
  let spawn_worker () = domains := Domain.spawn worker :: !domains in
  for _ = 1 to min jobs (max total 1) do
    spawn_worker ()
  done;
  let pending =
    ref
      (List.init total (fun i ->
           { p_index = i; p_attempt = 1; not_before = neg_infinity }))
  in
  (* (index, attempt) attempts in flight on some worker, and those
     abandoned at their deadline whose late results must be dropped. *)
  let inflight : (int * int, unit) Hashtbl.t = Hashtbl.create 16 in
  let abandoned : (int * int, unit) Hashtbl.t = Hashtbl.create 4 in
  let settled = ref 0 in
  let settle index outcome =
    statuses.(index) <-
      Some (match outcome with Ok v -> Settled v | Error f -> Failed f);
    incr settled;
    on_settled ~index outcome;
    on_done !settled
  in
  let resolve_failure ~index ~attempt failure =
    if attempt <= policy.retries then begin
      on_retry ~index ~attempt failure;
      pending :=
        !pending
        @ [
            {
              p_index = index;
              p_attempt = attempt + 1;
              not_before = Unix.gettimeofday () +. backoff_delay policy attempt;
            };
          ]
    end
    else if attempt = 1 then settle index (Error failure)
    else settle index (Error (Gave_up attempt))
  in
  while (not (stop ())) && (!pending <> [] || Hashtbl.length inflight > 0) do
    let now = Unix.gettimeofday () in
    let mature, immature =
      List.partition (fun p -> p.not_before <= now) !pending
    in
    pending := immature;
    if mature <> [] then begin
      Mutex.lock m;
      List.iter
        (fun p ->
          Hashtbl.replace inflight (p.p_index, p.p_attempt) ();
          Queue.push (p.p_index, p.p_attempt) ready;
          Condition.signal work_cond)
        mature;
      Mutex.unlock m
    end;
    (* Sleep until a worker reports, the nearest running attempt's
       deadline expires, or the nearest backed-off retry matures. *)
    let horizon =
      Mutex.lock m;
      let h =
        match policy.timeout with
        | None -> infinity
        | Some timeout ->
          Hashtbl.fold
            (fun key () acc ->
              match Hashtbl.find_opt started key with
              | Some t0 -> Float.min (t0 +. timeout) acc
              | None -> acc)
            inflight infinity
      in
      Mutex.unlock m;
      List.fold_left (fun acc p -> Float.min p.not_before acc) h !pending
    in
    let timeout =
      if horizon = infinity then -1.0
      else Float.max 0.0 (horizon -. Unix.gettimeofday ())
    in
    (match select_read [ notify_rd ] timeout with
    | [] -> ()
    | _ :: _ -> (
      let scratch = Bytes.create 256 in
      match Unix.read notify_rd scratch 0 256 with
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()));
    let fresh =
      Mutex.lock m;
      let batch = List.of_seq (Queue.to_seq results) in
      Queue.clear results;
      List.iter (fun r -> Hashtbl.remove started (r.r_index, r.r_attempt)) batch;
      Mutex.unlock m;
      batch
    in
    List.iter
      (fun { r_index = index; r_attempt = attempt; r_value = value } ->
        let key = (index, attempt) in
        if Hashtbl.mem abandoned key then begin
          (* The attempt was already reported Timed_out and replaced;
             drop the late result and shrink the pool back. *)
          Hashtbl.remove abandoned key;
          Mutex.lock m;
          incr retire;
          Condition.signal work_cond;
          Mutex.unlock m
        end
        else begin
          Hashtbl.remove inflight key;
          match value with
          | Ok v -> settle index (Ok v)
          | Error message -> resolve_failure ~index ~attempt (Crashed message)
        end)
      fresh;
    (match policy.timeout with
    | None -> ()
    | Some timeout ->
      let now = Unix.gettimeofday () in
      let expired =
        Mutex.lock m;
        let e =
          Hashtbl.fold
            (fun key () acc ->
              match Hashtbl.find_opt started key with
              | Some t0 when t0 +. timeout <= now -> key :: acc
              | _ -> acc)
            inflight []
        in
        Mutex.unlock m;
        e
      in
      List.iter
        (fun ((index, attempt) as key) ->
          Hashtbl.remove inflight key;
          Hashtbl.replace abandoned key ();
          (* The stuck worker cannot be reclaimed; keep the pool at
             strength for the remaining jobs. *)
          spawn_worker ();
          resolve_failure ~index ~attempt (Timed_out timeout))
        expired)
  done;
  let stopped = stop () in
  Mutex.lock m;
  shutdown := true;
  Condition.broadcast work_cond;
  Mutex.unlock m;
  (* Workers exit at their next queue visit. Joining is safe only when
     none is (possibly forever) inside [f]: skip it after a stop
     request or with abandoned attempts outstanding — those domains
     (and the notify pipe they may still poke) are left to process
     exit. *)
  if (not stopped) && Hashtbl.length abandoned = 0 then begin
    List.iter Domain.join !domains;
    (try Unix.close notify_rd with Unix.Unix_error _ -> ());
    try Unix.close notify_wr with Unix.Unix_error _ -> ()
  end;
  Array.to_list
    (Array.map (function Some status -> status | None -> Not_run) statuses)

let run ~jobs ?backend ?(policy = default_policy) ?(stop = fun () -> false)
    ?(on_done = fun _ -> ()) ?(on_retry = fun ~index:_ ~attempt:_ _ -> ())
    ?(on_settled = fun ~index:_ _ -> ()) f items =
  let backend =
    match backend with
    | Some backend -> backend
    | None -> if jobs <= 1 then Serial else Forked
  in
  match backend with
  | Serial -> run_serial ~policy ~stop ~on_done ~on_retry ~on_settled f items
  | Forked ->
    run_forked ~jobs:(max 1 jobs) ~policy ~stop ~on_done ~on_retry ~on_settled
      f items
  | Domains ->
    run_domains ~jobs:(max 1 jobs) ~policy ~stop ~on_done ~on_retry
      ~on_settled f items

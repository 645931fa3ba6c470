type t = {
  sends : Series.t;
  acks : Series.t;
  una : Series.t;
  cwnd : Series.t;
  (* Highest cumulative ACK recorded into [una]; tracked as an int so
     the per-ack monotonicity test allocates nothing (Series.last
     builds an option per call). *)
  mutable last_una : int;
  mutable recovery_entries : float list;
  mutable recovery_exits : float list;
  mutable timeouts : float list;
}

let attach agent =
  let t =
    {
      sends = Series.create ();
      acks = Series.create ();
      una = Series.create ();
      cwnd = Series.create ();
      last_una = min_int;
      recovery_entries = [];
      recovery_exits = [];
      timeouts = [];
    }
  in
  let base = agent.Tcp.Agent.base in
  Tcp.Sender_common.on_send base (fun ~time ~seq ~retx:_ ->
      Series.add_int t.sends ~time ~value:seq);
  Tcp.Sender_common.on_ack base (fun ~time ~ackno ->
      Series.add_int t.acks ~time ~value:ackno;
      Series.add t.cwnd ~time ~value:(Tcp.Sender_common.cwnd base);
      if ackno > t.last_una then begin
        t.last_una <- ackno;
        Series.add_int t.una ~time ~value:ackno
      end);
  Tcp.Sender_common.on_recovery_enter base (fun ~time ->
      t.recovery_entries <- time :: t.recovery_entries);
  Tcp.Sender_common.on_recovery_exit base (fun ~time ->
      t.recovery_exits <- time :: t.recovery_exits);
  Tcp.Sender_common.on_timeout base (fun ~time ->
      t.timeouts <- time :: t.timeouts);
  t

let recovery_episodes t =
  let entries = List.rev t.recovery_entries in
  let exits = List.rev t.recovery_exits in
  let rec pair entries exits acc =
    match (entries, exits) with
    | entry :: more_entries, exit :: more_exits ->
      if exit >= entry then pair more_entries more_exits ((entry, exit) :: acc)
      else pair entries more_exits acc
    | _, _ -> List.rev acc
  in
  pair entries exits []

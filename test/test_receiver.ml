(* TCP receiver tests: cumulative ACK generation, immediate duplicate
   ACKs on reordering, reassembly, SACK block generation, plus a qcheck
   property over random arrival orders. *)

type sent_ack = { ackno : int; sack : (int * int) list }

let make ?(sack = false) () =
  let engine = Sim.Engine.create () in
  let acks = ref [] in
  let receiver =
    Tcp.Receiver.create ~engine ~flow:0
      ~emit:(fun p ->
        match Net.Packet.kind p with
        | Net.Packet.Ack { ackno; sack } -> acks := { ackno; sack } :: !acks
        | Net.Packet.Data _ -> Alcotest.fail "receiver emitted data")
      ~sack ()
  in
  (receiver, acks)

let data seq = Net.Packet.data ~uid:seq ~flow:0 ~seq ~size_bytes:1000 ~born:0.0

let deliver receiver seqs = List.iter (fun s -> Tcp.Receiver.deliver receiver (data s)) seqs

let acknos acks = List.rev_map (fun a -> a.ackno) !acks

let test_in_order () =
  let receiver, acks = make () in
  deliver receiver [ 0; 1; 2 ];
  Alcotest.(check (list int)) "cumulative" [ 0; 1; 2 ] (acknos acks);
  Alcotest.(check int) "next expected" 3 (Tcp.Receiver.next_expected receiver);
  Alcotest.(check int) "received" 3 (Tcp.Receiver.segments_received receiver);
  Alcotest.(check int) "acks sent" 3 (Tcp.Receiver.acks_sent receiver)

let test_gap_generates_dupacks () =
  let receiver, acks = make () in
  deliver receiver [ 0; 2; 3; 4 ];
  (* Out-of-sequence arrivals each trigger an immediate dup ACK with the
     unchanged cumulative number (the paper's §2.2 requirement). *)
  Alcotest.(check (list int)) "dupacks" [ 0; 0; 0; 0 ] (acknos acks);
  Alcotest.(check int) "buffered" 3 (Tcp.Receiver.buffered receiver)

let test_hole_fill_jumps () =
  let receiver, acks = make () in
  deliver receiver [ 0; 2; 3; 1 ];
  Alcotest.(check (list int)) "jump to 3" [ 0; 0; 0; 3 ] (acknos acks);
  Alcotest.(check int) "nothing buffered" 0 (Tcp.Receiver.buffered receiver)

let test_duplicate_data_still_acked () =
  let receiver, acks = make () in
  deliver receiver [ 0; 1; 1; 0 ];
  Alcotest.(check (list int)) "every packet acked" [ 0; 1; 1; 1 ] (acknos acks);
  Alcotest.(check int) "duplicates counted" 2
    (Tcp.Receiver.duplicates_received receiver);
  Alcotest.(check int) "segments counted once" 2
    (Tcp.Receiver.segments_received receiver)

let test_sack_blocks () =
  let receiver, acks = make ~sack:true () in
  deliver receiver [ 0; 2; 4; 5 ];
  (match !acks with
  | { ackno = 0; sack } :: _ ->
    (* Most recent block (4-5, half-open 4-6) first. *)
    Alcotest.(check (list (pair int int))) "blocks" [ (4, 6); (2, 3) ] sack
  | _ -> Alcotest.fail "expected dup ack with sack");
  deliver receiver [ 1 ];
  match !acks with
  | { ackno = 2; sack } :: _ ->
    Alcotest.(check (list (pair int int))) "above-ack block remains" [ (4, 6) ] sack
  | _ -> Alcotest.fail "expected cumulative jump"

let test_sack_block_cap () =
  let receiver, acks = make ~sack:true () in
  deliver receiver [ 2; 4; 6; 8 ];
  match !acks with
  | { sack; _ } :: _ -> Alcotest.(check int) "capped" 3 (List.length sack)
  | [] -> Alcotest.fail "no ack"

let test_no_sack_by_default () =
  let receiver, acks = make () in
  deliver receiver [ 0; 5 ];
  match !acks with
  | { sack; _ } :: _ -> Alcotest.(check (list (pair int int))) "empty" [] sack
  | [] -> Alcotest.fail "no ack"

let make_delack () =
  let engine = Sim.Engine.create () in
  let acks = ref [] in
  let receiver =
    Tcp.Receiver.create ~engine ~flow:0
      ~emit:(fun p ->
        match Net.Packet.kind p with
        | Net.Packet.Ack { ackno; sack } -> acks := { ackno; sack } :: !acks
        | Net.Packet.Data _ -> Alcotest.fail "data")
      ~delayed_ack:true ()
  in
  (engine, receiver, acks)

let test_delack_every_second_segment () =
  let _, receiver, acks = make_delack () in
  deliver receiver [ 0 ];
  Alcotest.(check int) "first segment held" 0 (List.length !acks);
  deliver receiver [ 1 ];
  Alcotest.(check (list int)) "acked on the second" [ 1 ] (acknos acks);
  deliver receiver [ 2; 3 ];
  Alcotest.(check (list int)) "again every second" [ 1; 3 ] (acknos acks)

let test_delack_timeout_flushes () =
  let engine, receiver, acks = make_delack () in
  deliver receiver [ 0 ];
  Alcotest.(check int) "held" 0 (List.length !acks);
  Sim.Engine.run_until engine ~time:0.2;
  Alcotest.(check (list int)) "timer flushed the ack" [ 0 ] (acknos acks)

let test_delack_gap_acks_immediately () =
  let _, receiver, acks = make_delack () in
  deliver receiver [ 0 ];
  (* Out-of-order arrival: the held ACK situation must not delay the
     duplicate ACK the sender's loss detection needs. *)
  deliver receiver [ 5 ];
  Alcotest.(check bool) "dup ack sent at once" true
    (List.exists (fun a -> a.ackno = 0) !acks)

let test_delack_hole_fill_acks_immediately () =
  let _, receiver, acks = make_delack () in
  deliver receiver [ 0; 1 ];
  deliver receiver [ 3 ];
  let before = List.length !acks in
  deliver receiver [ 2 ];
  Alcotest.(check int) "immediate ack on hole fill" (before + 1)
    (List.length !acks);
  Alcotest.(check int) "cumulative over the buffer" 3
    (match !acks with a :: _ -> a.ackno | [] -> -2)

let test_rejects_acks () =
  let receiver, _ = make () in
  Alcotest.check_raises "ack" (Invalid_argument "Receiver.deliver: ACK packet")
    (fun () ->
      Tcp.Receiver.deliver receiver
        (Net.Packet.ack ~uid:1 ~flow:0 ~ackno:0 ~size_bytes:40 ~born:0.0 ()))

(* SACK blocks must always be well-formed: non-empty half-open ranges,
   entirely above the cumulative ACK, mutually disjoint, at most 3. *)
let prop_sack_blocks_well_formed =
  QCheck2.Test.make ~name:"sack blocks well-formed under any arrivals"
    ~count:300
    QCheck2.Gen.(list_size (int_range 1 40) (int_range 0 30))
    (fun seqs ->
      let receiver, acks = make ~sack:true () in
      deliver receiver seqs;
      List.for_all
        (fun { ackno; sack } ->
          List.length sack <= 3
          && List.for_all
               (fun (first, last_plus_one) ->
                 first < last_plus_one && first > ackno)
               sack
          &&
          let sorted =
            List.sort compare (List.map (fun (a, b) -> (a, b)) sack)
          in
          let rec disjoint = function
            | [] | [ _ ] -> true
            | (_, b1) :: ((a2, _) :: _ as rest) -> b1 <= a2 && disjoint rest
          in
          disjoint sorted)
        !acks)

(* Any permutation of 0..n-1, possibly with duplicates, ends with
   next_expected = n and one ACK per delivery. *)
let prop_any_order_reassembles =
  QCheck2.Test.make ~name:"receiver reassembles any arrival order" ~count:300
    QCheck2.Gen.(int_range 1 30 >>= fun n ->
                 map (fun shuffled -> (n, shuffled)) (shuffle_l (List.init n Fun.id)))
    (fun (n, order) ->
      let receiver, acks = make ~sack:true () in
      deliver receiver order;
      Tcp.Receiver.next_expected receiver = n
      && List.length !acks = List.length order
      && Tcp.Receiver.buffered receiver = 0)

let suite =
  [
    ( "receiver",
      [
        Alcotest.test_case "in order" `Quick test_in_order;
        Alcotest.test_case "gap dupacks" `Quick test_gap_generates_dupacks;
        Alcotest.test_case "hole fill jumps" `Quick test_hole_fill_jumps;
        Alcotest.test_case "duplicates acked" `Quick test_duplicate_data_still_acked;
        Alcotest.test_case "sack blocks" `Quick test_sack_blocks;
        Alcotest.test_case "sack cap" `Quick test_sack_block_cap;
        Alcotest.test_case "no sack by default" `Quick test_no_sack_by_default;
        Alcotest.test_case "delack every 2nd" `Quick test_delack_every_second_segment;
        Alcotest.test_case "delack timeout" `Quick test_delack_timeout_flushes;
        Alcotest.test_case "delack gap immediate" `Quick
          test_delack_gap_acks_immediately;
        Alcotest.test_case "delack hole fill immediate" `Quick
          test_delack_hole_fill_acks_immediately;
        Alcotest.test_case "rejects acks" `Quick test_rejects_acks;
        Qcheck_seed.to_alcotest prop_any_order_reassembles;
        Qcheck_seed.to_alcotest prop_sack_blocks_well_formed;
      ] );
  ]

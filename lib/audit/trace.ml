(* Interned-string table and reusable scratch buffer of a binary-mode
   tracer. Queue and link names repeat on every event, so they are
   written once as a definition record and referenced by id after. *)
type binary_state = {
  scratch : Buffer.t;
  interned : (string, int) Hashtbl.t;
  mutable next_id : int;
}

type mode = Jsonl | Binary of binary_state

type t = {
  out : out_channel;
  (* Events are formatted into [buf] and written out in [flush_at]-sized
     chunks, so tracing costs a memory append per event instead of a
     per-event channel write. *)
  buf : Buffer.t;
  flush_at : int;
  last_cumulative : (int, int) Hashtbl.t;  (* flow -> highest ackno seen *)
  mode : mode;
}

let default_flush_at = 1 lsl 16

(* The binary container: magic + version, then length-prefixed records.

     header  := "RRTB" version:u8(=1)
     record  := varint(payload length) payload
     payload := tag:u8 time:i63le rest

   [varint] is LEB128 (7 bits per byte, high bit = continuation) and
   encodes non-negative ints; signed fields go through zigzag first.
   [i63le] is an OCaml 63-bit int written as 8 little-endian bytes
   (two's complement; bit 63 of the wire word duplicates the sign) —
   used for times, which travel in {!Sim.Engine.bits_of_time}
   encoding so the exporter recovers the exact float the JSONL writer
   would have printed. Record payloads by tag:

     0  send            varint flow, zigzag seq, retx:u8
     1  ack             varint flow, zigzag ackno
     2  recovery_enter  varint flow
     3  recovery_exit   varint flow
     4  timeout         varint flow
     5  enqueue         strref queue, packet
     6  drop            strref queue, packet
     7  dequeue         strref queue, packet
     8  link_down       strref link
     9  link_up         strref link
     10 fault_drop      strref link, packet
     11 reorder         strref path, extra:i63le(timebits), packet
     14 rate_change     strref link, bps:f64le bits
     15 delay_change    strref link, delay:i63le(timebits)
     13 strdef          varint id, str
     packet := varint flow, is_data:u8, zigzag seq_or_ackno, varint uid
     str    := varint length, bytes
     strref := varint id      (defined by a preceding strdef)

   ACK [dup] flags are not stored: the exporter recomputes them with
   the same per-flow cumulative-point table the live JSONL writer
   uses, so the two outputs agree byte for byte. *)
let binary_magic = "RRTB\x01"

let create ?(flush_at = default_flush_at) ?(format = `Jsonl) ~out () =
  if flush_at <= 0 then invalid_arg "Trace.create: flush_at <= 0";
  let mode =
    match format with
    | `Jsonl -> Jsonl
    | `Binary ->
      Binary
        {
          scratch = Buffer.create 64;
          interned = Hashtbl.create 16;
          next_id = 0;
        }
  in
  let t =
    {
      out;
      (* Size the staging buffer to the requested flush threshold (the
         natural high-water mark), capped so a huge [flush_at] cannot
         demand a matching contiguous allocation up front. *)
      buf = Buffer.create (min flush_at (1 lsl 24));
      flush_at;
      last_cumulative = Hashtbl.create 7;
      mode;
    }
  in
  (match t.mode with
  | Jsonl -> ()
  | Binary _ -> Buffer.add_string t.buf binary_magic);
  t

let drain t =
  if Buffer.length t.buf > 0 then begin
    Buffer.output_buffer t.out t.buf;
    Buffer.clear t.buf
  end

let line t fmt =
  Printf.kbprintf
    (fun buf ->
      Buffer.add_char buf '\n';
      if Buffer.length buf >= t.flush_at then drain t)
    t.buf fmt

(* -- binary encoding primitives -- *)

let add_varint buf n =
  let n = ref n in
  while !n >= 0x80 do
    Buffer.add_char buf (Char.unsafe_chr (0x80 lor (!n land 0x7f)));
    n := !n lsr 7
  done;
  Buffer.add_char buf (Char.unsafe_chr !n)

let varint_size n =
  let n = ref n and size = ref 1 in
  while !n >= 0x80 do
    incr size;
    n := !n lsr 7
  done;
  !size

let[@inline] zigzag n = (n lsl 1) lxor (n asr 62)

let add_i63_le buf n =
  for i = 0 to 7 do
    Buffer.add_char buf (Char.unsafe_chr ((n asr (i * 8)) land 0xff))
  done

let add_str buf s =
  add_varint buf (String.length s);
  Buffer.add_string buf s

(* [intern t b name] returns the id of [name], writing its strdef
   record (tag 13) first on a miss. The definition goes straight to
   [t.buf]: [b.scratch] may be mid-event at this point. *)
let intern t b name =
  match Hashtbl.find_opt b.interned name with
  | Some id -> id
  | None ->
    let id = b.next_id in
    b.next_id <- id + 1;
    Hashtbl.add b.interned name id;
    let len = String.length name in
    add_varint t.buf (1 + varint_size id + varint_size len + len);
    Buffer.add_char t.buf '\x0d';
    add_varint t.buf id;
    add_str t.buf name;
    id

(* Every binary emitter encodes its payload into [b.scratch] between
   [bin_begin] and [bin_end]; the latter length-prefixes it into the
   staging buffer. Open-coded rather than taking an encoding callback
   so the hot emitters stay closure-free. *)
let bin_begin b tag ~time =
  Buffer.clear b.scratch;
  Buffer.add_char b.scratch (Char.unsafe_chr tag);
  add_i63_le b.scratch (Sim.Engine.bits_of_time time)

let bin_end t b =
  add_varint t.buf (Buffer.length b.scratch);
  Buffer.add_buffer t.buf b.scratch;
  if Buffer.length t.buf >= t.flush_at then drain t

let add_packet buf (packet : Net.Packet.t) =
  add_varint buf packet.flow;
  if Net.Packet.is_data packet then begin
    Buffer.add_char buf '\x01';
    add_varint buf (zigzag (Net.Packet.seq_exn packet))
  end
  else begin
    Buffer.add_char buf '\x00';
    add_varint buf (zigzag (Net.Packet.ackno_exn packet))
  end;
  add_varint buf packet.uid

(* -- event emitters, shared by the live hooks and the exporter -- *)

let emit_send t ~time ~flow ~seq ~retx =
  match t.mode with
  | Jsonl ->
    line t {|{"t":%.6f,"ev":"send","flow":%d,"seq":%d,"retx":%b}|} time flow
      seq retx
  | Binary b ->
    bin_begin b 0 ~time;
    add_varint b.scratch flow;
    add_varint b.scratch (zigzag seq);
    Buffer.add_char b.scratch (if retx then '\x01' else '\x00');
    bin_end t b

let emit_ack t ~time ~flow ~ackno =
  match t.mode with
  | Jsonl ->
    let dup =
      match Hashtbl.find_opt t.last_cumulative flow with
      | Some highest -> ackno <= highest
      | None -> false
    in
    if not dup then Hashtbl.replace t.last_cumulative flow ackno;
    line t {|{"t":%.6f,"ev":"ack","flow":%d,"ackno":%d,"dup":%b}|} time flow
      ackno dup
  | Binary b ->
    bin_begin b 1 ~time;
    add_varint b.scratch flow;
    add_varint b.scratch (zigzag ackno);
    bin_end t b

let emit_flow_marker t ~tag ~ev ~time ~flow =
  match t.mode with
  | Jsonl -> line t {|{"t":%.6f,"ev":"%s","flow":%d}|} time ev flow
  | Binary b ->
    bin_begin b tag ~time;
    add_varint b.scratch flow;
    bin_end t b

let packet_fields (packet : Net.Packet.t) =
  if Net.Packet.is_data packet then
    Printf.sprintf {|"flow":%d,"kind":"data","seq":%d,"uid":%d|} packet.flow
      (Net.Packet.seq_exn packet) packet.uid
  else
    Printf.sprintf {|"flow":%d,"kind":"ack","ackno":%d,"uid":%d|} packet.flow
      (Net.Packet.ackno_exn packet) packet.uid

let emit_queue_event t ~tag ~ev ~time ~name packet =
  match t.mode with
  | Jsonl ->
    line t {|{"t":%.6f,"ev":"%s","queue":"%s",%s}|} time ev name
      (packet_fields packet)
  | Binary b ->
    let id = intern t b name in
    bin_begin b tag ~time;
    add_varint b.scratch id;
    add_packet b.scratch packet;
    bin_end t b

let emit_link_marker t ~tag ~ev ~time ~link =
  match t.mode with
  | Jsonl -> line t {|{"t":%.6f,"ev":"%s","link":"%s"}|} time ev link
  | Binary b ->
    let id = intern t b link in
    bin_begin b tag ~time;
    add_varint b.scratch id;
    bin_end t b

let emit_fault_drop t ~time ~link packet =
  match t.mode with
  | Jsonl ->
    line t {|{"t":%.6f,"ev":"fault_drop","link":"%s",%s}|} time link
      (packet_fields packet)
  | Binary b ->
    let id = intern t b link in
    bin_begin b 10 ~time;
    add_varint b.scratch id;
    add_packet b.scratch packet;
    bin_end t b

let emit_rate_change t ~time ~link ~bps =
  match t.mode with
  | Jsonl ->
    line t {|{"t":%.6f,"ev":"rate_change","link":"%s","bps":%g}|} time link bps
  | Binary b ->
    let id = intern t b link in
    bin_begin b 14 ~time;
    add_varint b.scratch id;
    Buffer.add_int64_le b.scratch (Int64.bits_of_float bps);
    bin_end t b

let emit_delay_change t ~time ~link ~delay =
  match t.mode with
  | Jsonl ->
    line t {|{"t":%.6f,"ev":"delay_change","link":"%s","delay":%.6f}|} time
      link delay
  | Binary b ->
    let id = intern t b link in
    bin_begin b 15 ~time;
    add_varint b.scratch id;
    add_i63_le b.scratch (Sim.Engine.bits_of_time delay);
    bin_end t b

let emit_reorder t ~time ~path ~extra packet =
  match t.mode with
  | Jsonl ->
    line t {|{"t":%.6f,"ev":"reorder","path":"%s","extra":%.6f,%s}|} time path
      extra (packet_fields packet)
  | Binary b ->
    let id = intern t b path in
    bin_begin b 11 ~time;
    add_varint b.scratch id;
    add_i63_le b.scratch (Sim.Engine.bits_of_time extra);
    add_packet b.scratch packet;
    bin_end t b

(* -- hook subscriptions -- *)

let attach_sender t agent =
  let flow = agent.Tcp.Agent.flow in
  let base = agent.Tcp.Agent.base in
  Tcp.Sender_common.on_send base (fun ~time ~seq ~retx ->
      emit_send t ~time ~flow ~seq ~retx);
  Tcp.Sender_common.on_ack base (fun ~time ~ackno ->
      emit_ack t ~time ~flow ~ackno);
  Tcp.Sender_common.on_recovery_enter base (fun ~time ->
      emit_flow_marker t ~tag:2 ~ev:"recovery_enter" ~time ~flow);
  Tcp.Sender_common.on_recovery_exit base (fun ~time ->
      emit_flow_marker t ~tag:3 ~ev:"recovery_exit" ~time ~flow);
  Tcp.Sender_common.on_timeout base (fun ~time ->
      emit_flow_marker t ~tag:4 ~ev:"timeout" ~time ~flow)

let attach_queue t ~engine ~name disc =
  Net.Queue_disc.subscribe disc (fun event p ->
      let time = Sim.Engine.now engine in
      match event with
      | Net.Queue_disc.Enqueued ->
        emit_queue_event t ~tag:5 ~ev:"enqueue" ~time ~name p
      | Net.Queue_disc.Dropped ->
        emit_queue_event t ~tag:6 ~ev:"drop" ~time ~name p
      | Net.Queue_disc.Dequeued ->
        emit_queue_event t ~tag:7 ~ev:"dequeue" ~time ~name p)

let attach_injector t injector =
  Faults.Injector.subscribe injector (fun ~time event ->
      match event with
      | Faults.Injector.Link_down { link } ->
        emit_link_marker t ~tag:8 ~ev:"link_down" ~time ~link
      | Faults.Injector.Link_up { link } ->
        emit_link_marker t ~tag:9 ~ev:"link_up" ~time ~link
      | Faults.Injector.Fault_drop { link; packet } ->
        emit_fault_drop t ~time ~link packet
      | Faults.Injector.Reordered { path; packet; extra } ->
        emit_reorder t ~time ~path ~extra packet
      | Faults.Injector.Rate_change { link; bps } ->
        emit_rate_change t ~time ~link ~bps
      | Faults.Injector.Delay_change { link; delay } ->
        emit_delay_change t ~time ~link ~delay)

let flush t =
  drain t;
  flush t.out

(* -- offline export: binary container back to the JSONL the Jsonl
   mode would have written live. Decoded events are replayed through
   the emitters above on a Jsonl tracer, so the formats (and the
   recomputed ACK [dup] flags) cannot drift apart. -- *)

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

(* The ninth byte of a varint lands at bit 56, six bits below OCaml's
   sign bit: a larger byte, or one with a continuation, would make the
   value negative. No writer emits such a varint, so the reader
   refuses it. *)
let varint_byte ~shift acc b =
  if shift = 56 && b > 0x3f then corrupt "varint overflow";
  acc lor ((b land 0x7f) lsl shift)

(* Read the next record's length prefix; [None] on a clean EOF at a
   record boundary. EOF anywhere inside the varint is corruption. *)
let read_record_len input =
  match input_char input with
  | exception End_of_file -> None
  | first ->
    let rec go shift acc =
      let b =
        try Char.code (input_char input)
        with End_of_file -> corrupt "truncated varint"
      in
      let acc = varint_byte ~shift acc b in
      if b land 0x80 <> 0 then go (shift + 7) acc else acc
    in
    let b = Char.code first in
    Some
      (if b land 0x80 <> 0 then go 7 (b land 0x7f) else b)

type cursor = { payload : string; mutable pos : int }

let byte cur =
  if cur.pos >= String.length cur.payload then corrupt "truncated record";
  let c = Char.code cur.payload.[cur.pos] in
  cur.pos <- cur.pos + 1;
  c

let cur_varint cur =
  let rec go shift acc =
    let b = byte cur in
    let acc = varint_byte ~shift acc b in
    if b land 0x80 <> 0 then go (shift + 7) acc else acc
  in
  go 0 0

let[@inline] unzigzag n = (n lsr 1) lxor (-(n land 1))

let cur_i63 cur =
  let n = ref 0 in
  for i = 0 to 7 do
    n := !n lor (byte cur lsl (i * 8))
  done;
  (* Bit 63 of the wire word duplicated the sign and fell off the
     63-bit int; bit 62 still carries it. *)
  !n

let cur_time cur = Sim.Engine.time_of_bits (cur_i63 cur)

let cur_str cur =
  let len = cur_varint cur in
  if len > String.length cur.payload - cur.pos then corrupt "truncated string";
  let s = String.sub cur.payload cur.pos len in
  cur.pos <- cur.pos + len;
  s

let cur_i64 cur =
  let n = ref 0L in
  for i = 0 to 7 do
    n := Int64.logor !n (Int64.shift_left (Int64.of_int (byte cur)) (i * 8))
  done;
  !n

(* Rebuild a traced packet from its wire triple. Only the fields the
   emitters print matter; size and birth time are not traced. *)
let cur_packet cur =
  let flow = cur_varint cur in
  let is_data = byte cur <> 0 in
  let number = unzigzag (cur_varint cur) in
  let uid = cur_varint cur in
  if is_data then
    Net.Packet.data ~uid ~flow ~seq:number ~size_bytes:0 ~born:0.0
  else Net.Packet.ack ~uid ~flow ~ackno:number ~size_bytes:0 ~born:0.0 ()

let export ~input ~output =
  (match really_input_string input (String.length binary_magic) with
  | magic when magic = binary_magic -> ()
  | _ -> corrupt "bad magic (not an rr-sim binary trace)"
  | exception End_of_file -> corrupt "bad magic (not an rr-sim binary trace)");
  (* A payload past 64 KiB is read a chunk at a time, so a corrupt
     length allocates only what actually arrives before End_of_file;
     a file and a pipe are read alike. *)
  let payload len =
    if len <= 65536 then really_input_string input len
    else begin
      let buf = Buffer.create 65536 in
      let rec fill left =
        if left > 0 then begin
          let n = min left 65536 in
          Buffer.add_channel buf input n;
          fill (left - n)
        end
      in
      fill len;
      Buffer.contents buf
    end
  in
  let jt = create ~out:output () in
  let strings = Hashtbl.create 16 in
  let strref cur =
    let id = cur_varint cur in
    match Hashtbl.find_opt strings id with
    | Some s -> s
    | None -> corrupt "undefined string reference %d" id
  in
  let rec records () =
    match read_record_len input with
    | None -> ()
    | Some len ->
      let payload =
        try payload len with End_of_file -> corrupt "truncated record"
      in
      let cur = { payload; pos = 0 } in
      (match byte cur with
      | 0 ->
        let time = cur_time cur in
        let flow = cur_varint cur in
        let seq = unzigzag (cur_varint cur) in
        let retx = byte cur <> 0 in
        emit_send jt ~time ~flow ~seq ~retx
      | 1 ->
        let time = cur_time cur in
        let flow = cur_varint cur in
        let ackno = unzigzag (cur_varint cur) in
        emit_ack jt ~time ~flow ~ackno
      | 2 ->
        let time = cur_time cur in
        emit_flow_marker jt ~tag:2 ~ev:"recovery_enter" ~time
          ~flow:(cur_varint cur)
      | 3 ->
        let time = cur_time cur in
        emit_flow_marker jt ~tag:3 ~ev:"recovery_exit" ~time
          ~flow:(cur_varint cur)
      | 4 ->
        let time = cur_time cur in
        emit_flow_marker jt ~tag:4 ~ev:"timeout" ~time ~flow:(cur_varint cur)
      | (5 | 6 | 7) as tag ->
        let time = cur_time cur in
        let name = strref cur in
        let packet = cur_packet cur in
        let ev =
          match tag with 5 -> "enqueue" | 6 -> "drop" | _ -> "dequeue"
        in
        emit_queue_event jt ~tag ~ev ~time ~name packet
      | (8 | 9) as tag ->
        let time = cur_time cur in
        let ev = if tag = 8 then "link_down" else "link_up" in
        emit_link_marker jt ~tag ~ev ~time ~link:(strref cur)
      | 10 ->
        let time = cur_time cur in
        let link = strref cur in
        emit_fault_drop jt ~time ~link (cur_packet cur)
      | 11 ->
        let time = cur_time cur in
        let path = strref cur in
        let extra = cur_time cur in
        emit_reorder jt ~time ~path ~extra (cur_packet cur)
      | 14 ->
        let time = cur_time cur in
        let link = strref cur in
        let bps = Int64.float_of_bits (cur_i64 cur) in
        emit_rate_change jt ~time ~link ~bps
      | 15 ->
        let time = cur_time cur in
        let link = strref cur in
        let delay = cur_time cur in
        emit_delay_change jt ~time ~link ~delay
      | 13 ->
        let id = cur_varint cur in
        Hashtbl.replace strings id (cur_str cur)
      | tag -> corrupt "unknown record tag %d" tag);
      if cur.pos <> String.length payload then
        corrupt "record length mismatch (tag %d)" (Char.code payload.[0]);
      records ()
  in
  records ();
  flush jt

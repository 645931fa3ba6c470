type kind =
  | Data of { seq : int }
  | Ack of { ackno : int; sack : (int * int) list }

(* All-immediate representation: one 7-word block per packet (plus the
   SACK list when an ACK carries ranges), no variant box, no boxed
   float. [info] packs tag and sequence number in one word:

     bit 0        1 = data, 0 = ack
     bits 1..62   seqno (data) or ackno (ack), biased by +1 so the
                  pre-handshake cumulative point -1 encodes as 0

   [born_bits] is the engine's order-preserving encoding of the
   creation timestamp ({!Sim.Engine.bits_of_time}), kept as an int so
   the record stays float-free (a [float] field in a mixed record is a
   pointer to a 2-word box). *)
type t = {
  uid : int;
  flow : int;
  info : int;
  sack : (int * int) list;
  size_bytes : int;
  born_bits : int;
}

let data_bits ~uid ~flow ~seq ~size_bytes ~born_bits =
  { uid; flow; info = ((seq + 1) lsl 1) lor 1; sack = []; size_bytes; born_bits }

let ack_bits ~uid ~flow ~ackno ~sack ~size_bytes ~born_bits =
  { uid; flow; info = (ackno + 1) lsl 1; sack; size_bytes; born_bits }

let data ~uid ~flow ~seq ~size_bytes ~born =
  data_bits ~uid ~flow ~seq ~size_bytes
    ~born_bits:(Sim.Engine.bits_of_time born)

let ack ~uid ~flow ~ackno ?(sack = []) ~size_bytes ~born () =
  ack_bits ~uid ~flow ~ackno ~sack ~size_bytes
    ~born_bits:(Sim.Engine.bits_of_time born)

let none =
  ack_bits ~uid:(-1) ~flow:(-1) ~ackno:(-1) ~sack:[] ~size_bytes:0
    ~born_bits:(Sim.Engine.bits_of_time 0.0)

let[@inline] is_none t = t == none

let[@inline] is_data t = t.info land 1 = 1
let[@inline] seqno t = (t.info lsr 1) - 1
let[@inline] born t = Sim.Engine.time_of_bits t.born_bits

let seq_exn t =
  if is_data t then seqno t else invalid_arg "Packet.seq_exn: ACK packet"

let ackno_exn t =
  if is_data t then invalid_arg "Packet.ackno_exn: data packet" else seqno t

let[@inline] sack t = t.sack

let kind t =
  if is_data t then Data { seq = seqno t }
  else Ack { ackno = seqno t; sack = t.sack }

let pp ppf t =
  if is_data t then
    Format.fprintf ppf "data[flow=%d seq=%d uid=%d %dB]" t.flow (seqno t) t.uid
      t.size_bytes
  else
    Format.fprintf ppf "ack[flow=%d ackno=%d sack=%a uid=%d]" t.flow (seqno t)
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
         (fun ppf (a, b) -> Format.fprintf ppf "%d-%d" a b))
      t.sack t.uid

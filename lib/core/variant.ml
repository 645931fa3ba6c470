type t = Tahoe | Reno | Newreno | Sack | Fack | Vegas | Rr | Relentless | Rrr

let all = [ Tahoe; Reno; Newreno; Sack; Fack; Vegas; Rr; Relentless; Rrr ]

let name = function
  | Tahoe -> "tahoe"
  | Reno -> "reno"
  | Newreno -> "newreno"
  | Sack -> "sack"
  | Fack -> "fack"
  | Vegas -> "vegas"
  | Rr -> "rr"
  | Relentless -> "relentless"
  | Rrr -> "rrr"

let of_string s =
  match String.lowercase_ascii s with
  | "tahoe" -> Ok Tahoe
  | "reno" -> Ok Reno
  | "newreno" | "new-reno" -> Ok Newreno
  | "sack" -> Ok Sack
  | "fack" -> Ok Fack
  | "vegas" -> Ok Vegas
  | "rr" | "robust" | "robust-recovery" -> Ok Rr
  | "relentless" -> Ok Relentless
  | "rrr" | "relative-rate-reduction" -> Ok Rrr
  | other -> Error (Printf.sprintf "unknown TCP variant %S" other)

let create_inspected t ~engine ~params ~flow ~emit () =
  let newreno rule =
    (Tcp.Newreno.create rule ~engine ~params ~flow ~emit (), None)
  in
  match t with
  | Tahoe -> (Tcp.Tahoe.create ~engine ~params ~flow ~emit (), None)
  | Reno -> newreno Tcp.Newreno.Reno
  | Newreno -> newreno Tcp.Newreno.Newreno
  | Sack -> (Tcp.Sack.create ~engine ~params ~flow ~emit (), None)
  | Fack -> (Tcp.Fack.create ~engine ~params ~flow ~emit (), None)
  | Vegas -> (Tcp.Vegas.create ~engine ~params ~flow ~emit (), None)
  | Rr ->
    let agent, handle =
      Rr.create ~engine ~params ~flow ~emit ~ablation:Rr.paper_design ()
    in
    (agent, Some handle)
  | Relentless -> newreno Tcp.Newreno.Relentless
  | Rrr -> newreno Tcp.Newreno.Rrr

let create t ~engine ~params ~flow ~emit () =
  fst (create_inspected t ~engine ~params ~flow ~emit ())

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let escape_string buffer s =
  Buffer.add_char buffer '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buffer "\\\""
      | '\\' -> Buffer.add_string buffer "\\\\"
      | '\n' -> Buffer.add_string buffer "\\n"
      | '\r' -> Buffer.add_string buffer "\\r"
      | '\t' -> Buffer.add_string buffer "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buffer (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buffer c)
    s;
  Buffer.add_char buffer '"'

let number_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else
    (* Shortest representation that round-trips a double. *)
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let rec write ~indent ~level buffer v =
  let pad n =
    if indent then begin
      Buffer.add_char buffer '\n';
      Buffer.add_string buffer (String.make (2 * n) ' ')
    end
  in
  let sequence open_c close_c items write_item =
    Buffer.add_char buffer open_c;
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buffer ',';
        pad (level + 1);
        write_item item)
      items;
    if items <> [] then pad level;
    Buffer.add_char buffer close_c
  in
  match v with
  | Null -> Buffer.add_string buffer "null"
  | Bool b -> Buffer.add_string buffer (if b then "true" else "false")
  | Num f -> Buffer.add_string buffer (number_to_string f)
  | Str s -> escape_string buffer s
  | List items ->
    sequence '[' ']' items (write ~indent ~level:(level + 1) buffer)
  | Obj fields ->
    sequence '{' '}' fields (fun (key, value) ->
        escape_string buffer key;
        Buffer.add_char buffer ':';
        if indent then Buffer.add_char buffer ' ';
        write ~indent ~level:(level + 1) buffer value)

let render ~indent v =
  let buffer = Buffer.create 256 in
  write ~indent ~level:0 buffer v;
  Buffer.contents buffer

let to_string v = render ~indent:false v
let pretty v = render ~indent:true v

(* -- parser: plain recursive descent over a cursor -- *)

exception Parse_error of string

let of_string input =
  let pos = ref 0 in
  let len = String.length input in
  let fail message = raise (Parse_error message) in
  let peek () = if !pos < len then Some input.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some got when got = c -> advance ()
    | Some got -> fail (Printf.sprintf "expected '%c', got '%c'" c got)
    | None -> fail (Printf.sprintf "expected '%c', got end of input" c)
  in
  let literal word value =
    if !pos + String.length word <= len
       && String.sub input !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail (Printf.sprintf "invalid literal at offset %d" !pos)
  in
  let add_utf8 buffer code =
    if code < 0x80 then Buffer.add_char buffer (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char buffer (Char.chr (0xC0 lor (code lsr 6)));
      Buffer.add_char buffer (Char.chr (0x80 lor (code land 0x3F)))
    end
    else begin
      Buffer.add_char buffer (Char.chr (0xE0 lor (code lsr 12)));
      Buffer.add_char buffer (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buffer (Char.chr (0x80 lor (code land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let buffer = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> begin
        advance ();
        (match peek () with
        | Some '"' -> Buffer.add_char buffer '"'
        | Some '\\' -> Buffer.add_char buffer '\\'
        | Some '/' -> Buffer.add_char buffer '/'
        | Some 'b' -> Buffer.add_char buffer '\b'
        | Some 'f' -> Buffer.add_char buffer '\012'
        | Some 'n' -> Buffer.add_char buffer '\n'
        | Some 'r' -> Buffer.add_char buffer '\r'
        | Some 't' -> Buffer.add_char buffer '\t'
        | Some 'u' ->
          if !pos + 4 >= len then fail "truncated \\u escape";
          let hex = String.sub input (!pos + 1) 4 in
          (match int_of_string_opt ("0x" ^ hex) with
          | Some code ->
            add_utf8 buffer code;
            pos := !pos + 4
          | None -> fail "invalid \\u escape")
        | Some c -> fail (Printf.sprintf "invalid escape '\\%c'" c)
        | None -> fail "unterminated escape");
        advance ();
        loop ()
      end
      | Some c ->
        Buffer.add_char buffer c;
        advance ();
        loop ()
    in
    loop ();
    Buffer.contents buffer
  in
  let parse_number () =
    let start = !pos in
    let number_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> number_char c | None -> false) do
      advance ()
    done;
    let text = String.sub input start (!pos - start) in
    match float_of_string_opt text with
    | Some f -> Num f
    | None -> fail (Printf.sprintf "invalid number %S" text)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> Str (parse_string ())
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let rec items acc =
          let item = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items (item :: acc)
          | Some ']' ->
            advance ();
            List.rev (item :: acc)
          | _ -> fail "expected ',' or ']' in array"
        in
        List (items [])
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          (key, parse_value ())
        in
        let rec fields acc =
          let f = field () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields (f :: acc)
          | Some '}' ->
            advance ();
            List.rev (f :: acc)
          | _ -> fail "expected ',' or '}' in object"
        in
        Obj (fields [])
      end
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> len then fail "trailing garbage after document";
    v
  with
  | v -> Ok v
  | exception Parse_error message -> Error message

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

(* A literal such as 1e999 parses to infinity; it is no measurement. *)
let to_float = function Num f when Float.is_finite f -> Some f | _ -> None

(* Past 2^53 a double no longer holds every integer, and [int_of_float]
   wraps once past [max_int]. *)
let to_int = function
  | Num f when Float.is_integer f && Float.abs f <= 0x1p53 ->
    Some (int_of_float f)
  | _ -> None

let to_str = function Str s -> Some s | _ -> None
let to_list = function List items -> Some items | _ -> None
let to_obj = function Obj fields -> Some fields | _ -> None

(* One value type, one printer, one parser. The parser is a minimal
   recursive descent: tolerant of field order and unknown fields, so
   formats can grow without breaking old readers. *)

type rule = Display | Stamp

type t =
  | Null
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list
  | Rounded of rule * float

let display x = Rounded (Display, x)
let exact x = Num x
let stamp x = Rounded (Stamp, x)
let strings l = Arr (List.map (fun s -> Str s) l)
let string_map l = Obj (List.map (fun (k, v) -> k, Str v) l)
let option f = function None -> Null | Some x -> f x

(* ------------------------------------------------------------------ *)
(* Printer                                                             *)

(* The exact rule: the shortest of %.15g/%.17g that parses back equal
   (epoch timestamps already need 11 digits for sub-second
   precision). *)
let exact_digits x =
  let s = Printf.sprintf "%.15g" x in
  if float_of_string s = x then s else Printf.sprintf "%.17g" x

let add_number b digits x =
  Buffer.add_string b (if Float.is_finite x then digits x else "null")

let escape_into b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s

let escape s =
  let b = Buffer.create (String.length s + 8) in
  escape_into b s;
  Buffer.contents b

let add_quoted b s =
  Buffer.add_char b '"';
  escape_into b s;
  Buffer.add_char b '"'

(* [op] items [cl], comma-separated. *)
let seq b op cl f items =
  Buffer.add_char b op;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      f x)
    items;
  Buffer.add_char b cl

let rec to_buffer b = function
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (if x then "true" else "false")
  | Int n -> Buffer.add_string b (string_of_int n)
  | Num x -> add_number b exact_digits x
  | Rounded (Display, x) -> add_number b (Printf.sprintf "%.9g") x
  | Rounded (Stamp, x) -> add_number b (Printf.sprintf "%.6f") x
  | Str s -> add_quoted b s
  | Arr items -> seq b '[' ']' (to_buffer b) items
  | Obj fields ->
    seq b '{' '}'
      (fun (k, v) ->
        add_quoted b k;
        Buffer.add_char b ':';
        to_buffer b v)
      fields

let to_string v =
  let b = Buffer.create 256 in
  to_buffer b v;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)

exception Parse_error of string

let parse (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') -> incr pos; skip_ws ()
    | _ -> ()
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal lit v =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then (pos := !pos + l; v)
    else fail ("expected " ^ lit)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> incr pos; Buffer.contents b
        | '\\' ->
          incr pos;
          if !pos >= n then fail "bad escape";
          (match s.[!pos] with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
            if !pos + 4 >= n then fail "bad \\u escape";
            (match int_of_string_opt ("0x" ^ String.sub s (!pos + 1) 4) with
            | Some code when code < 0x80 -> Buffer.add_char b (Char.chr code)
            | Some _ -> Buffer.add_char b '?' (* names and keys are ASCII *)
            | None -> fail "bad \\u escape");
            pos := !pos + 4
          | _ -> fail "bad escape");
          incr pos;
          go ()
        | c -> Buffer.add_char b c; incr pos; go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && num_char s.[!pos] do incr pos done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  (* The comma-separated items of an object or array, up to [close];
     the opening bracket is already consumed. *)
  let items close item =
    skip_ws ();
    if peek () = Some close then (incr pos; [])
    else
      let rec go acc =
        let acc = item () :: acc in
        skip_ws ();
        match peek () with
        | Some ',' -> incr pos; go acc
        | Some c when c = close -> incr pos; List.rev acc
        | _ -> fail (Printf.sprintf "expected ',' or '%c'" close)
      in
      go []
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' -> incr pos; Obj (items '}' member)
    | Some '[' -> incr pos; Arr (items ']' parse_value)
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
    | None -> fail "unexpected end of input"
  and member () =
    skip_ws ();
    let k = parse_string () in
    skip_ws ();
    expect ':';
    k, parse_value ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing input";
  v

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None

let str_member k j = match member k j with Some (Str s) -> Some s | _ -> None

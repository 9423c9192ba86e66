type severity = Info | Warning | Error | Fatal

let severity_to_string = function
  | Info -> "info"
  | Warning -> "warning"
  | Error -> "error"
  | Fatal -> "fatal"

let severity_rank = function Info -> 0 | Warning -> 1 | Error -> 2 | Fatal -> 3

type loc = { file : string; line : int; col : int }

let loc ?(line = 0) ?(col = 0) file = { file; line; col }

type t = {
  severity : severity;
  code : string;
  dloc : loc option;
  message : string;
}

let make ?loc severity ~code message = { severity; code; dloc = loc; message }

let makef ?loc severity ~code fmt =
  Printf.ksprintf (fun s -> make ?loc severity ~code s) fmt

let loc_prefix = function
  | None -> ""
  | Some { file; line; col } ->
    let b = Buffer.create 32 in
    if file <> "" then Buffer.add_string b file;
    if line > 0 then begin
      if Buffer.length b > 0 then Buffer.add_char b ':';
      Buffer.add_string b (string_of_int line);
      if col > 0 then begin
        Buffer.add_char b ':';
        Buffer.add_string b (string_of_int col)
      end
    end;
    if Buffer.length b > 0 then Buffer.add_string b ": ";
    Buffer.contents b

let to_string d =
  Printf.sprintf "%s%s[%s]: %s" (loc_prefix d.dloc)
    (severity_to_string d.severity)
    d.code d.message

let json d =
  let positive k n = if n > 0 then [ k, Json.Int n ] else [] in
  let loc =
    match d.dloc with
    | None -> []
    | Some { file; line; col } ->
      (("file", Json.Str file) :: positive "line" line) @ positive "col" col
  in
  Json.(
    Obj
      ([ "severity", Str (severity_to_string d.severity); "code", Str d.code ]
      @ loc @ [ "message", Str d.message ]))

let render_text ds = String.concat "\n" (List.map to_string ds)
let render_json ds = Json.to_string (Json.Arr (List.map json ds))
let messages ds = List.map (fun d -> d.message) ds

let max_severity = function
  | [] -> None
  | d :: ds ->
    Some
      (List.fold_left
         (fun acc d ->
           if severity_rank d.severity > severity_rank acc then d.severity
           else acc)
         d.severity ds)

let has_errors ds =
  List.exists (fun d -> severity_rank d.severity >= severity_rank Error) ds

let count sev ds = List.length (List.filter (fun d -> d.severity = sev) ds)

type collector = { mutable rev : t list }

let collector () = { rev = [] }
let add c d = c.rev <- d :: c.rev

let addf c ?loc severity ~code fmt =
  Printf.ksprintf (fun s -> add c (make ?loc severity ~code s)) fmt

let to_list c = List.rev c.rev
let is_empty c = c.rev = []

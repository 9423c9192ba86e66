type origin =
  | Union
  | Intersection
  | Tolerance_merge
  | Uniquification
  | Derived_exclusivity
  | Inherited
  | Clock_refinement
  | Data_clock_refinement
  | Comparison_fix of { pass : int }

let origin_to_string = function
  | Union -> "union"
  | Intersection -> "intersection"
  | Tolerance_merge -> "tolerance-merge"
  | Uniquification -> "uniquification"
  | Derived_exclusivity -> "derived-exclusivity"
  | Inherited -> "inherited"
  | Clock_refinement -> "clock-refinement"
  | Data_clock_refinement -> "data-clock-refinement"
  | Comparison_fix { pass } -> Printf.sprintf "comparison-pass%d" pass

type entry = {
  pv_id : string;
  pv_line : string;
  pv_origin : origin;
  pv_modes : string list;
  pv_evidence : (string * string) list list;
  pv_notes : string list;
}

type seed = {
  sd_line : string;
  sd_origin : origin;
  sd_modes : string list;
  sd_evidence : (string * string) list list;
  sd_notes : string list;
}

let seed ?(modes = []) ?(evidence = []) ?(notes = []) ~origin line =
  { sd_line = line; sd_origin = origin; sd_modes = modes;
    sd_evidence = evidence; sd_notes = notes }

type store = {
  scope : string;
  entries : entry array;
  index : (string, int list) Hashtbl.t; (* trimmed line -> indices, in order *)
}

let norm_line = String.trim

(* Ids are assigned sequentially in seed (= constraint emission) order,
   so they are a function of the merged mode's content alone — never of
   scheduling — which keeps them byte-identical across --jobs values. *)
let make ~scope seeds =
  let entries =
    Array.of_list
      (List.mapi
         (fun i sd ->
           {
             pv_id = Printf.sprintf "%s#c%d" scope i;
             pv_line = sd.sd_line;
             pv_origin = sd.sd_origin;
             pv_modes = sd.sd_modes;
             pv_evidence = sd.sd_evidence;
             pv_notes = sd.sd_notes;
           })
         seeds)
  in
  let index = Hashtbl.create (Array.length entries) in
  Array.iteri
    (fun i e ->
      let k = norm_line e.pv_line in
      let prev = Option.value ~default:[] (Hashtbl.find_opt index k) in
      Hashtbl.replace index k (prev @ [ i ]))
    entries;
  { scope; entries; index }

let scope t = t.scope
let entries t = Array.to_list t.entries
let length t = Array.length t.entries

let find_line t line =
  match Hashtbl.find_opt t.index (norm_line line) with
  | None -> []
  | Some is -> List.map (fun i -> t.entries.(i)) is

let find_id t id =
  let n = Array.length t.entries in
  let rec go i =
    if i >= n then None
    else if t.entries.(i).pv_id = id then Some t.entries.(i)
    else go (i + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let explain_entry e =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "%s: %s\n  origin: %s" e.pv_id e.pv_line
       (origin_to_string e.pv_origin));
  if e.pv_modes <> [] then
    Buffer.add_string b
      (Printf.sprintf "\n  contributed by: %s" (String.concat ", " e.pv_modes));
  List.iter
    (fun ev ->
      Buffer.add_string b "\n  evidence:";
      List.iter
        (fun (k, v) -> Buffer.add_string b (Printf.sprintf " %s=%s" k v))
        ev)
    e.pv_evidence;
  List.iter
    (fun n -> Buffer.add_string b (Printf.sprintf "\n  note: %s" n))
    e.pv_notes;
  Buffer.contents b

let entry_json e =
  Json.(
    Obj
      [ "id", Str e.pv_id; "line", Str e.pv_line;
        "origin", Str (origin_to_string e.pv_origin); "modes", strings e.pv_modes;
        "evidence", Arr (List.map string_map e.pv_evidence);
        "notes", strings e.pv_notes ])

let json t =
  Json.(Obj [ "scope", Str t.scope; "entries", Arr (List.map entry_json (entries t)) ])

let to_json t = Json.to_string (json t)

(* Result cache: bounded memory LRU over an optional on-disk store.
   All entry points lock one mutex; the work inside is O(entries) at
   worst (LRU eviction scan), tiny next to a merge. *)

module Json = Mm_util.Json
module Metrics = Mm_util.Metrics
module Eventlog = Mm_util.Eventlog

let disk_schema = 1
let disk_magic = Printf.sprintf "modemerge-rcache %d" disk_schema

type slot = { mutable sl_outcome : Job.outcome; mutable sl_used : int }

type t = {
  dir : string option;
  entries : int;
  table : (string, slot) Hashtbl.t;
  mutable tick : int;  (* LRU clock: bumped on every touch *)
  mu : Mutex.t;
}

let create ?dir ?(entries = 64) () =
  Option.iter
    (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
    dir;
  {
    dir;
    entries = max 1 entries;
    table = Hashtbl.create 64;
    tick = 0;
    mu = Mutex.create ();
  }

(* ------------------------------------------------------------------ *)
(* Disk layer: "modemerge-rcache N FP MD5\n" + Marshal payload,
   written to a temp file and renamed into place. Anything that fails
   verification is deleted and reported absent.                        *)

let disk_path dir fp = Filename.concat dir (fp ^ ".result")

let disk_write dir fp (outcome : Job.outcome) =
  let payload = Marshal.to_string outcome [] in
  let header =
    Printf.sprintf "%s %s %s\n" disk_magic fp
      (Digest.to_hex (Digest.string payload))
  in
  (* Advisory: a full or read-only disk leaves the memory tier
     serving. *)
  try Mm_util.Atomic_file.write (disk_path dir fp) (header ^ payload)
  with Sys_error _ -> ()

let disk_read dir fp : Job.outcome option =
  let path = disk_path dir fp in
  if not (Sys.file_exists path) then None
  else
    let drop () = (try Sys.remove path with Sys_error _ -> ()); None in
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error _ -> None
    | raw -> (
      match String.index_opt raw '\n' with
      | None -> drop ()
      | Some nl -> (
        let header = String.sub raw 0 nl in
        let payload = String.sub raw (nl + 1) (String.length raw - nl - 1) in
        match String.split_on_char ' ' header with
        | [ "modemerge-rcache"; v; h_fp; h_md5 ]
          when int_of_string_opt v = Some disk_schema
               && h_fp = fp
               && h_md5 = Digest.to_hex (Digest.string payload) -> (
          match (Marshal.from_string payload 0 : Job.outcome) with
          | outcome -> Some outcome
          | exception _ -> drop ())
        | _ -> drop ()))

(* ------------------------------------------------------------------ *)
(* Memory LRU                                                          *)

let touch t slot =
  t.tick <- t.tick + 1;
  slot.sl_used <- t.tick

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun fp slot acc ->
        match acc with
        | Some (_, best) when best.sl_used <= slot.sl_used -> acc
        | _ -> Some (fp, slot))
      t.table None
  in
  match victim with
  | None -> ()
  | Some (fp, _) ->
    Hashtbl.remove t.table fp;
    Metrics.incr "cache.evictions";
    Eventlog.log "cache.evicted" ~attrs:[ "fp", fp ]

let insert t fp outcome =
  match Hashtbl.find_opt t.table fp with
  | Some slot ->
    slot.sl_outcome <- outcome;
    touch t slot
  | None ->
    if Hashtbl.length t.table >= t.entries then evict_lru t;
    let slot = { sl_outcome = outcome; sl_used = 0 } in
    touch t slot;
    Hashtbl.add t.table fp slot

(* ------------------------------------------------------------------ *)
(* Interface                                                           *)

let find t fp =
  Mutex.protect t.mu (fun () ->
      match Hashtbl.find_opt t.table fp with
      | Some slot ->
        touch t slot;
        Metrics.incr "cache.hits";
        Eventlog.log "cache.hit" ~attrs:[ "fp", fp; "tier", "memory" ];
        Some slot.sl_outcome
      | None -> (
        match Option.bind t.dir (fun dir -> disk_read dir fp) with
        | Some outcome ->
          (* Promote: the disk hit becomes the freshest memory entry. *)
          insert t fp outcome;
          Metrics.incr "cache.hits";
          Eventlog.log "cache.hit" ~attrs:[ "fp", fp; "tier", "disk" ];
          Some outcome
        | None ->
          Metrics.incr "cache.misses";
          Eventlog.log "cache.miss" ~attrs:[ "fp", fp ];
          None))

let store t fp outcome =
  Mutex.protect t.mu (fun () ->
      insert t fp outcome;
      Option.iter (fun dir -> disk_write dir fp outcome) t.dir;
      Metrics.incr "cache.stores";
      Eventlog.log "cache.stored"
        ~attrs:
          [
            "fp", fp;
            "tier", (if t.dir = None then "memory" else "memory+disk");
          ])

let json_of_stats t =
  Mutex.protect t.mu (fun () ->
      let disk_files =
        match t.dir with
        | None -> 0
        | Some dir -> (
          match Sys.readdir dir with
          | files ->
            Array.fold_left
              (fun n f -> if Filename.check_suffix f ".result" then n + 1 else n)
              0 files
          | exception Sys_error _ -> 0)
      in
      Json.(
        Obj
          [ "entries", Int (Hashtbl.length t.table); "capacity", Int t.entries;
            "disk", option (fun d -> Str d) t.dir; "disk_files", Int disk_files;
            "hits", Int (Metrics.get_counter "cache.hits");
            "misses", Int (Metrics.get_counter "cache.misses");
            "stores", Int (Metrics.get_counter "cache.stores");
            "evictions", Int (Metrics.get_counter "cache.evictions") ]))

let stats_json t = Json.to_string (json_of_stats t)

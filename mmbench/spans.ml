(* In-memory span recorder for the traced run.

   Spans are opened by the benchmark around its own calls into a
   layer's public functions; nothing inside the library is
   instrumented. Each span has a name, start, end, parent and the
   words the calling domain allocated inside it. Spans stay in memory
   until the run ends and are then written out as JSON. Single-domain
   use only: the traced pipeline runs at jobs=1. *)

type span = {
  id : int;
  parent : int;  (* -1 for a root *)
  name : string;
  start_ns : int64;
  end_ns : int64;
  alloc_w : float;
}

let now_ns = Mm_util.Obs.Clock.now_ns
let alloc_words () = Gc.allocated_bytes () /. float_of_int (Sys.word_size / 8)

let recorded : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0

let reset () =
  recorded := [];
  stack := [];
  next_id := 0

let with_span name f =
  let id = !next_id in
  incr next_id;
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  stack := id :: !stack;
  let a0 = alloc_words () in
  let t0 = now_ns () in
  let finish () =
    let t1 = now_ns () in
    stack := List.tl !stack;
    recorded :=
      { id; parent; name; start_ns = t0; end_ns = t1; alloc_w = alloc_words () -. a0 }
      :: !recorded
  in
  Fun.protect ~finally:finish f

let spans () = List.rev !recorded
let dur_s sp = Int64.to_float (Int64.sub sp.end_ns sp.start_ns) /. 1e9

(* Self time: the span's duration minus the time its direct children
   cover (children are sequential, so their durations simply add). *)
let self_s all sp =
  List.fold_left
    (fun acc c -> if c.parent = sp.id then acc -. dur_s c else acc)
    (dur_s sp) all

let self_alloc_w all sp =
  List.fold_left
    (fun acc c -> if c.parent = sp.id then acc -. c.alloc_w else acc)
    sp.alloc_w all

(* Per layer name: (calls, summed self seconds, summed self words). *)
let by_layer all =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun sp ->
      let n, s, w =
        Option.value (Hashtbl.find_opt tbl sp.name) ~default:(0, 0.0, 0.0)
      in
      Hashtbl.replace tbl sp.name
        (n + 1, s +. self_s all sp, w +. self_alloc_w all sp))
    all;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort compare

let to_json all =
  let b = Buffer.create 4096 in
  Buffer.add_char b '[';
  List.iteri
    (fun i sp ->
      if i > 0 then Buffer.add_string b ",\n";
      Printf.bprintf b
        {|{"id":%d,"parent":%d,"name":"%s","start_ns":%Ld,"end_ns":%Ld,"self_s":%.9f,"alloc_w":%.0f}|}
        sp.id sp.parent sp.name sp.start_ns sp.end_ns (self_s all sp)
        sp.alloc_w)
    all;
  Buffer.add_string b "]";
  Buffer.contents b

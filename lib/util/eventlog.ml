(* Bounded ring journal of structured events. Always on: one mutex
   acquisition and an array write per event, memory bounded by the
   capacity, so even a misplaced per-element [log] cannot grow the
   process. The ring holds the newest [capacity] events; cumulative
   per-kind counters survive wraparound so whole-run event counts stay
   exact. *)

type event = {
  ev_seq : int;
  ev_t_ns : int64;
  ev_ts : float;
  ev_kind : string;
  ev_attrs : (string * string) list;
}

let schema_version = "modemerge-events/1"
let default_capacity = 4096

type state = {
  mutable ring : event option array;
  mutable head : int; (* next write slot *)
  mutable live : int; (* occupied slots, <= Array.length ring *)
  mutable seq : int; (* total events ever logged *)
  kind_counts : (string, int) Hashtbl.t;
}

let lock = Mutex.create ()

let st =
  {
    ring = Array.make default_capacity None;
    head = 0;
    live = 0;
    seq = 0;
    kind_counts = Hashtbl.create 32;
  }

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* Retained events oldest-first; caller holds the lock. *)
let retained_locked () =
  let cap = Array.length st.ring in
  let out = ref [] in
  for i = 0 to st.live - 1 do
    (* newest is at head-1, oldest at head-live (mod cap) *)
    let idx = (st.head - 1 - i + (2 * cap)) mod cap in
    match st.ring.(idx) with
    | Some e -> out := e :: !out
    | None -> ()
  done;
  !out

let capacity () = with_lock (fun () -> Array.length st.ring)

let set_capacity n =
  let n = max 1 n in
  with_lock (fun () ->
      if n <> Array.length st.ring then begin
        let keep =
          let all = retained_locked () in
          let drop = max 0 (List.length all - n) in
          List.filteri (fun i _ -> i >= drop) all
        in
        let ring = Array.make n None in
        List.iteri (fun i e -> ring.(i) <- Some e) keep;
        st.ring <- ring;
        st.live <- List.length keep;
        st.head <- st.live mod n
      end)

let log ?(attrs = []) kind =
  let t_ns = Obs.Clock.now_ns () in
  let ts = Unix.gettimeofday () in
  with_lock (fun () ->
      let cap = Array.length st.ring in
      let e =
        { ev_seq = st.seq; ev_t_ns = t_ns; ev_ts = ts; ev_kind = kind;
          ev_attrs = attrs }
      in
      st.ring.(st.head) <- Some e;
      st.head <- (st.head + 1) mod cap;
      if st.live < cap then st.live <- st.live + 1;
      st.seq <- st.seq + 1;
      Hashtbl.replace st.kind_counts kind
        (1 + Option.value ~default:0 (Hashtbl.find_opt st.kind_counts kind)))

let recent ?limit () =
  let all = with_lock retained_locked in
  match limit with
  | None -> all
  | Some l when l >= List.length all -> all
  | Some l ->
    let drop = List.length all - max 0 l in
    List.filteri (fun i _ -> i >= drop) all

let total () = with_lock (fun () -> st.seq)

let dropped () = with_lock (fun () -> st.seq - st.live)

let counts () =
  with_lock (fun () ->
      List.sort
        (fun (a, _) (b, _) -> String.compare a b)
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) st.kind_counts []))

let reset () =
  with_lock (fun () ->
      Array.fill st.ring 0 (Array.length st.ring) None;
      st.head <- 0;
      st.live <- 0;
      st.seq <- 0;
      Hashtbl.reset st.kind_counts)

let event_json e =
  (* [ts] takes the stamp rule: microsecond wall-clock resolution,
     which the display rule's nine digits would truncate away on epoch
     seconds. *)
  Json.(
    to_string
      (Obj
         [ "seq", Int e.ev_seq; "ts", stamp e.ev_ts; "t_ns", Int (Int64.to_int e.ev_t_ns);
           "kind", Str e.ev_kind; "attrs", string_map e.ev_attrs ]))

let to_ndjson ?limit () =
  let header =
    Json.(
      to_string
        (Obj
           [ "schema", Str schema_version; "total", Int (total ());
             "dropped", Int (dropped ()) ]))
  in
  String.concat "\n" (header :: List.map event_json (recent ?limit ())) ^ "\n"

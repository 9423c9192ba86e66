(* Telemetry endpoint routing. The built-in endpoints are pure reads
   of process-global observability state; nothing here writes into the
   pipeline, which is what keeps --serve byte-identity trivial.
   Registered routes (the service daemon's /jobs plane) may carry
   state of their own — they are consulted before the built-ins. *)

let parse_spec s =
  let port_of p =
    match int_of_string_opt p with
    | Some n when n >= 0 && n <= 65535 -> Ok n
    | _ -> Error (Printf.sprintf "invalid port %S (want 0..65535)" p)
  in
  match String.rindex_opt s ':' with
  | None -> Result.map (fun p -> "127.0.0.1", p) (port_of s)
  | Some i ->
    let addr = String.sub s 0 i
    and p = String.sub s (i + 1) (String.length s - i - 1) in
    if addr = "" then Error (Printf.sprintf "empty address in %S" s)
    else Result.map (fun p -> addr, p) (port_of p)

(* ------------------------------------------------------------------ *)
(* Route registration                                                   *)

(* A route owns a path prefix: it gets every request whose path equals
   [prefix] or continues it after a '/'. Routes are consulted
   newest-first, before the built-in telemetry endpoints, so a
   registered "/jobs" cannot be shadowed. *)
let routes : (string * Httpd.handler) list ref = ref []
let routes_mu = Mutex.create ()

let register ~prefix handler =
  Mutex.protect routes_mu (fun () -> routes := (prefix, handler) :: !routes)

let unregister ~prefix =
  Mutex.protect routes_mu (fun () ->
      routes := List.filter (fun (p, _) -> p <> prefix) !routes)

let route_for path =
  let matches prefix =
    path = prefix
    || String.length path > String.length prefix
       && String.sub path 0 (String.length prefix) = prefix
       && path.[String.length prefix] = '/'
  in
  Mutex.protect routes_mu (fun () ->
      List.find_opt (fun (p, _) -> matches p) !routes)
  |> Option.map snd

(* ------------------------------------------------------------------ *)
(* /healthz                                                            *)

let started_ns = Obs.Clock.now_ns ()

(* The most recently started server, so /healthz (and anything else)
   can report the actual bound endpoint — the autopicked port used to
   be visible only in the stderr startup line. *)
let current : Httpd.t option ref = ref None
let current_mu = Mutex.create ()

let endpoint () =
  Mutex.protect current_mu (fun () ->
      Option.map (fun t -> Httpd.addr t, Httpd.port t) !current)

(* Degradation-ladder position, worst observed rung first. The rungs
   mirror Merge_flow's rescue ladder: a clean run is [nominal]; retries
   mean transient trouble absorbed; quarantines mean constraints were
   set aside; degraded cliques mean merge quality was traded for
   completion. *)
let ladder_position ~retries ~quarantined ~degraded =
  if degraded > 0 then "degraded"
  else if quarantined > 0 then "quarantined"
  else if retries > 0 then "retried"
  else "nominal"

let healthz_json () =
  let retries = Metrics.get_counter "govern.retries"
  and quarantined = Metrics.get_counter "merge.quarantined"
  and degraded = Metrics.get_counter "merge.degraded_cliques" in
  let open Json in
  let governance =
    match Govern.run_root () with
    | None -> Obj [ "active", Bool false ]
    | Some t ->
      let cancelled =
        match Govern.cancelled t with
        | None -> Bool false
        | Some r -> Str (Govern.reason_code r)
      in
      Obj
        [ "active", Bool true; "scope", Str (Govern.scope t);
          "remaining_s", option display (Govern.remaining_s t); "cancelled", cancelled ]
  in
  let serve (a, p) =
    Obj [ "addr", Str a; "port", Int p; "url", Str (Printf.sprintf "http://%s:%d/" a p) ]
  in
  let memory =
    [ "limit_mb", option display (Govern.memory_limit_mb ());
      "over_watermark", Bool (Govern.memory_pressure () <> None) ]
  in
  let counters =
    [ "govern.retries", Int retries; "merge.quarantined", Int quarantined;
      "merge.degraded_cliques", Int degraded ]
  in
  to_string
    (Obj
       [ "status", Str "ok"; "pid", Int (Unix.getpid ());
         "uptime_s", display (Obs.Clock.elapsed_s started_ns);
         "serve", option serve (endpoint ());
         "ladder", Str (ladder_position ~retries ~quarantined ~degraded);
         "governance", governance; "memory", Obj memory; "counters", Obj counters;
         "events_total", Int (Eventlog.total ()) ])

(* ------------------------------------------------------------------ *)
(* Routing                                                             *)

let index_body =
  String.concat "\n"
    [
      "modemerge telemetry";
      "";
      "  /metrics   Prometheus text exposition";
      "  /healthz   liveness + governance state (JSON)";
      "  /progress  per-stage done/total with ETA (JSON)";
      "  /events    recent event journal (NDJSON; ?n=N for newest N)";
      "  /trace     Chrome trace_event JSON of spans so far";
      "";
    ]

let read_only_405 =
  Httpd.respond ~status:405
    ~headers:[ "Allow", "GET, HEAD" ]
    "telemetry endpoints are read-only\n"

let handler (rq : Httpd.request) =
  match route_for rq.Httpd.rq_path with
  | Some h -> h rq
  | None when rq.Httpd.rq_method <> "GET" && rq.Httpd.rq_method <> "HEAD" ->
    read_only_405
  | None -> (
    match rq.Httpd.rq_path with
    | "/" | "/index.html" -> Httpd.respond index_body
    | "/metrics" ->
      Httpd.respond
        ~content_type:"text/plain; version=0.0.4; charset=utf-8"
        (Metrics.to_prometheus ())
    | "/healthz" ->
      Httpd.respond ~content_type:"application/json" (healthz_json () ^ "\n")
    | "/progress" ->
      Httpd.respond ~content_type:"application/json" (Progress.to_json () ^ "\n")
    | "/events" ->
      let limit =
        List.assoc_opt "n" rq.Httpd.rq_query
        |> Option.map int_of_string_opt |> Option.join
      in
      Httpd.respond ~content_type:"application/x-ndjson"
        (Eventlog.to_ndjson ?limit ())
    | "/trace" ->
      Httpd.respond ~content_type:"application/json" (Obs.trace_event_json ())
    | _ -> Httpd.not_found)

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)

type t = Httpd.t

let start ?max_body_bytes ~addr ~port () =
  let t = Httpd.start ~addr ~port ?max_body_bytes handler in
  Mutex.protect current_mu (fun () -> current := Some t);
  Eventlog.log "serve.start"
    ~attrs:
      [
        "addr", Httpd.addr t;
        "port", string_of_int (Httpd.port t);
        "url",
        Printf.sprintf "http://%s:%d/" (Httpd.addr t) (Httpd.port t);
      ];
  t

let addr = Httpd.addr
let port = Httpd.port

let stop t =
  Mutex.protect current_mu (fun () ->
      match !current with Some c when c == t -> current := None | _ -> ());
  Httpd.stop t

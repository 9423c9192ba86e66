(* HTTP surface of the merge service. Handlers run on the Httpd
   domain; everything they touch (scheduler, cache, observability
   registries) is mutex- or atomic-protected. *)

module Httpd = Mm_util.Httpd
module Serve = Mm_util.Serve
module Json = Mm_util.Json

type config = {
  dc_addr : string;
  dc_port : int;
  dc_jobs : int option;
  dc_queue_cap : int;
  dc_cache_entries : int;
  dc_cache_dir : string option;
  dc_max_body_bytes : int;
}

let default_config =
  {
    dc_addr = "127.0.0.1";
    dc_port = 0;
    dc_jobs = None;
    dc_queue_cap = 16;
    dc_cache_entries = 64;
    dc_cache_dir = None;
    dc_max_body_bytes = 8 * 1024 * 1024;
  }

type t = {
  mutable server : Serve.t option;  (* None only during start *)
  sched : Scheduler.t;
  rcache : Rcache.t;
  mutable stopped : bool;
}

(* ------------------------------------------------------------------ *)
(* JSON rendering                                                      *)

(* Every reply is one JSON value plus a newline, printed into one
   buffer. *)
let reply ?(status = 200) ?headers v =
  let b = Buffer.create 256 in
  Json.to_buffer b v;
  Buffer.add_char b '\n';
  Httpd.respond ~status ?headers ~content_type:"application/json"
    (Buffer.contents b)

let error status msg = reply ~status (Json.Obj [ "error", Json.Str msg ])

let files_json (o : Job.outcome) =
  let file (name, text) =
    Json.(Obj [ "name", Str name; "bytes", Int (String.length text) ])
  in
  Json.Arr (List.map file o.Job.oc_files)

let origin_json (v : Scheduler.view) =
  Json.option (fun o -> Json.Str (Job.origin_to_string o)) v.Scheduler.v_origin

let view_json (v : Scheduler.view) =
  let error =
    match v.Scheduler.v_state with
    | Job.Failed msg | Job.Cancelled msg -> [ "error", Json.Str msg ]
    | _ -> []
  in
  let result =
    match v.Scheduler.v_outcome with
    | None -> []
    | Some o ->
      [ "summary", Job.json_of_summary o.Job.oc_summary; "files", files_json o ]
  in
  Json.(
    Obj
      ([ "id", Str v.Scheduler.v_id;
         "state", Str (Job.state_to_string v.Scheduler.v_state); "cache", origin_json v;
         "priority", Int v.Scheduler.v_priority; "fingerprint", Str v.Scheduler.v_fp;
         "sources", Int v.Scheduler.v_n_sources;
         "wall_s", option display v.Scheduler.v_wall_s ]
      @ error @ result))

(* ------------------------------------------------------------------ *)
(* Routes                                                              *)

(* "/jobs/j3/result/merged_0.sdc" -> ["j3"; "result"; "merged_0.sdc"] *)
let subpath ~prefix path =
  let rest =
    String.sub path (String.length prefix)
      (String.length path - String.length prefix)
  in
  List.filter (fun s -> s <> "") (String.split_on_char '/' rest)

let jobs_handler t (rq : Httpd.request) =
  match rq.Httpd.rq_method, subpath ~prefix:"/jobs" rq.Httpd.rq_path with
  | "POST", [] -> (
    match Job.spec_of_json rq.Httpd.rq_body with
    | Error msg -> error 400 msg
    | Ok spec -> (
      match Scheduler.submit t.sched spec with
      | Scheduler.Queue_full retry_s ->
        reply ~status:429
          ~headers:[ "Retry-After", string_of_int retry_s ]
          Json.(
            Obj
              [ "error", Str "queue full"; "queue_cap", Int (Scheduler.queue_cap t.sched);
                "retry_after_s", Int retry_s ])
      | Scheduler.Accepted v ->
        let status =
          if v.Scheduler.v_state = Job.Done then 200 else 202
        in
        reply ~status (view_json v)))
  | ("GET" | "HEAD"), [] ->
    reply (Json.Arr (List.map view_json (Scheduler.list t.sched)))
  | ("GET" | "HEAD"), [ id ] -> (
    match Scheduler.find t.sched id with
    | None -> error 404 (Printf.sprintf "unknown job %s" id)
    | Some v -> reply (view_json v))
  | ("GET" | "HEAD"), (id :: "result" :: rest as _path) -> (
    match Scheduler.find t.sched id with
    | None -> error 404 (Printf.sprintf "unknown job %s" id)
    | Some v -> (
      match v.Scheduler.v_outcome with
      | None ->
        error 409
          (Printf.sprintf "job %s is %s, not done" id
             (Job.state_to_string v.Scheduler.v_state))
      | Some o -> (
        match rest with
        | [] ->
          reply
            Json.(
              Obj
                [ "id", Str id; "cache", origin_json v;
                  "summary", Job.json_of_summary o.Job.oc_summary;
                  "files", files_json o ])
        | [ file ] -> (
          match List.assoc_opt file o.Job.oc_files with
          | None -> error 404 (Printf.sprintf "no file %s in job %s" file id)
          | Some text ->
            (* Raw bytes: what `modemerge merge` would have written to
               -o DIR under the same name. *)
            Httpd.respond ~content_type:"text/plain; charset=utf-8" text)
        | _ -> Httpd.not_found)))
  | "DELETE", [ id ] -> (
    match Scheduler.cancel t.sched id with
    | Ok v -> reply (view_json v)
    | Error msg ->
      let status =
        if Scheduler.find t.sched id = None then 404 else 409
      in
      error status msg)
  | ("POST" | "DELETE"), _ ->
    Httpd.respond ~status:405
      ~headers:[ "Allow", "GET, HEAD, POST, DELETE" ]
      "method not allowed here\n"
  | _ -> Httpd.not_found

let queue_handler t (rq : Httpd.request) =
  match rq.Httpd.rq_method with
  | "GET" | "HEAD" ->
    let views = Scheduler.list t.sched in
    let count st =
      Json.Int
        (List.length
           (List.filter
              (fun v -> Job.state_to_string v.Scheduler.v_state = st)
              views))
    in
    let job v =
      Json.(
        Obj
          [ "id", Str v.Scheduler.v_id;
            "state", Str (Job.state_to_string v.Scheduler.v_state);
            "priority", Int v.Scheduler.v_priority ])
    in
    let states = [ "queued"; "running"; "done"; "failed"; "cancelled" ] in
    reply
      Json.(
        Obj
          (List.map (fun st -> st, count st) states
          @ [ "queue_cap", Int (Scheduler.queue_cap t.sched);
              "jobs", Arr (List.map job views) ]))
  | _ ->
    Httpd.respond ~status:405 ~headers:[ "Allow", "GET, HEAD" ]
      "method not allowed here\n"

let cache_handler t (rq : Httpd.request) =
  match rq.Httpd.rq_method, subpath ~prefix:"/cache" rq.Httpd.rq_path with
  | ("GET" | "HEAD"), [ "stats" ] -> reply (Rcache.json_of_stats t.rcache)
  | ("GET" | "HEAD"), _ -> Httpd.not_found
  | _ ->
    Httpd.respond ~status:405 ~headers:[ "Allow", "GET, HEAD" ]
      "method not allowed here\n"

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)

let start config =
  let rcache =
    Rcache.create ?dir:config.dc_cache_dir ~entries:config.dc_cache_entries ()
  in
  let sched =
    Scheduler.create ?jobs:config.dc_jobs ~queue_cap:config.dc_queue_cap
      ~cache:rcache ()
  in
  let t = { server = None; sched; rcache; stopped = false } in
  Serve.register ~prefix:"/jobs" (jobs_handler t);
  Serve.register ~prefix:"/queue" (queue_handler t);
  Serve.register ~prefix:"/cache" (cache_handler t);
  (match
     Serve.start ~max_body_bytes:config.dc_max_body_bytes
       ~addr:config.dc_addr ~port:config.dc_port ()
   with
  | server -> t.server <- Some server
  | exception e ->
    Serve.unregister ~prefix:"/jobs";
    Serve.unregister ~prefix:"/queue";
    Serve.unregister ~prefix:"/cache";
    Scheduler.stop sched;
    raise e);
  t

let addr t = Serve.addr (Option.get t.server)
let port t = Serve.port (Option.get t.server)
let scheduler t = t.sched
let cache t = t.rcache

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    Serve.unregister ~prefix:"/jobs";
    Serve.unregister ~prefix:"/queue";
    Serve.unregister ~prefix:"/cache";
    Scheduler.stop t.sched;
    Option.iter Serve.stop t.server
  end

(* The modemerge benchmark: one command per workload that measures the
   end-to-end metrics (or, with --trace 1, the per-layer metrics),
   checks every output against pinned digests and cross-checks, and
   prints one JSON result line last on stdout.

     mmbench.exe --workload NAME --seed N --seconds S --trace 0|1

   Workloads, metrics and the layer -> metric map are documented in
   README.md next to this file and in BENCHMARK.json at the root.

   Every measured merge runs in a forked child process. The child
   inherits the parsed design with an empty compiled-graph cache, so
   each merge pays the netlist compile exactly as a `modemerge merge`
   run does, starts from the same heap, and gives its memory back when
   it exits. The parent never spawns a domain, which keeps fork legal. *)

module Presets = Mm_workload.Presets
module MF = Mm_core.Merge_flow
module Mode = Mm_sdc.Mode
module Design = Mm_netlist.Design
module Netlist_io = Mm_netlist.Netlist_io
module Metrics = Mm_util.Metrics
module Obs = Mm_util.Obs
module Pool = Mm_util.Pool
module Httpd = Mm_util.Httpd
module Runlog = Mm_util.Runlog
module Sta = Mm_timing.Sta
module Daemon = Mm_service.Daemon
module Job = Mm_service.Job

let now_ns = Obs.Clock.now_ns
let elapsed_s = Obs.Clock.elapsed_s
let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)

let sorted xs = List.sort compare xs

let quantile q = function
  | [] -> nan
  | xs ->
    (* Nearest rank. *)
    let a = Array.of_list (sorted xs) in
    let n = Array.length a in
    a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let median = function
  | [] -> nan
  | xs ->
    let a = Array.of_list (sorted xs) in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

type workload = {
  w_name : string;
  w_primary : Presets.preset;
      (* in-process merges, STA and the traced pipeline run on this *)
  w_inproc_share : float;  (* share of --seconds for in-process merges *)
}

(* Every workload also sends the same service stream (presets B and D,
   see [stream_block]) to the daemon between its in-process rounds; on
   A and F it is a short side load, on service_mix it takes most of the
   time. *)
let workloads =
  [
    { w_name = "many_modes_A"; w_primary = Presets.design_a; w_inproc_share = 0.6 };
    { w_name = "big_design_F"; w_primary = Presets.design_f; w_inproc_share = 0.75 };
    { w_name = "service_mix"; w_primary = Presets.design_d; w_inproc_share = 0.35 };
  ]

let service_presets = [ Presets.design_b; Presets.design_d ]

(* The gate: merged-mode count and SHA-256 of the merged SDC files
   (see [files_digest]) of every preset a workload merges. The seed
   only adds comment lines to the SDC text, so these hold for every
   seed. *)
let pinned =
  [
    "A", (16, "c8d4a017e3d23196737e19a58ea6687ccb33a9217ae374cdf79d494effbb0961");
    "B", (1, "9c587d09f3e9f3661a782fe8551cb3794db5b78b88b9182f5c4e94b3c6512601");
    "D", (1, "61545b8692adfe24153cb29b12e9769949ed4bec2a06d598d435e9845f9cc4ee");
    "F", (2, "dbbff929edf2716bc24fb174a7c53d530c390665de9d0cfa378b37d4838bfd51");
  ]

let poll_interval_s = 0.010
(* One closed-loop client: a hit never runs beside a miss's merge and a
   miss never waits in the queue, so each latency measures one path. *)
let stream_clients = 1

(* ------------------------------------------------------------------ *)
(* Inputs: only netlist and SDC text reach the program                 *)

type input = {
  in_name : string;  (* preset name *)
  in_design_text : string;
  in_design_json : string;  (* [in_design_text] as a JSON string literal *)
  in_design : Design.t;  (* parsed from [in_design_text] *)
  in_sources : (string * string) list;  (* (mode name, SDC text) *)
}

let json_str s = "\"" ^ Metrics.json_escape s ^ "\""

(* Set-up, [reps] times over: the last result is kept, every duration
   is returned. *)
let timed_setup ~reps f =
  let rec go n acc =
    let t0 = now_ns () in
    let v = f () in
    let acc = elapsed_s t0 :: acc in
    if n <= 1 then List.rev acc, v else go (n - 1) acc
  in
  go reps []

let make_input ~seed (p : Presets.preset) =
  let design, _info, modes = Presets.build p in
  let text = Netlist_io.to_string design in
  let salt = Printf.sprintf "# mmbench seed %d\n" seed in
  {
    in_name = p.Presets.pr_name;
    in_design_text = text;
    in_design_json = json_str text;
    in_design = Netlist_io.of_string text;
    in_sources =
      List.map (fun (m : Mode.t) -> m.Mode.mode_name, Mode.to_sdc m ^ salt) modes;
  }

let mf_sources inp =
  List.map
    (fun (n, t) -> { MF.src_name = n; src_file = None; src_text = t })
    inp.in_sources

(* A [POST /jobs] body; [salt] (a comment line) makes a new spec. *)
let spec_body inp ~salt =
  Printf.sprintf {|{"design":{"format":"nl","text":%s},"sources":[%s]}|}
    inp.in_design_json
    (String.concat ","
       (List.map
          (fun (n, t) ->
            Printf.sprintf {|{"name":%s,"text":%s}|} (json_str n)
              (json_str (t ^ salt)))
          inp.in_sources))

let files_digest files =
  Sha256.hex
    (String.concat ""
       (List.map
          (fun (n, b) -> Printf.sprintf "%s\n%d\n%s" n (String.length b) b)
          files))

(* ------------------------------------------------------------------ *)
(* Failure accounting: a wrong output is a failed operation            *)

let attempted = ref 0
let failed = ref 0

let check ok fmt =
  Printf.ksprintf
    (fun msg ->
      incr attempted;
      if not ok then begin
        incr failed;
        log "FAILED: %s" msg
      end)
    fmt

let check_output ~what ~preset ~n_merged ~digest =
  let exp_n, exp_d = List.assoc preset pinned in
  check (n_merged = exp_n) "%s: %s merged to %d modes, pinned %d" what preset
    n_merged exp_n;
  check (digest = exp_d) "%s: %s merged SDC digest %s, pinned %s" what preset
    digest exp_d

(* ------------------------------------------------------------------ *)
(* Forked children                                                     *)

let rec reap pid =
  match Unix.waitpid [] pid with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap pid

(* Run [f] in a child process and return its marshalled result. The
   parent waits for the child before returning. *)
let in_child (f : unit -> 'a) : ('a, string) result =
  flush stdout;
  flush stderr;
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let oc = Unix.out_channel_of_descr w in
    let v =
      match f () with
      | v -> Ok v
      | exception e -> Error (Printexc.to_string e)
    in
    Marshal.to_channel oc (v : ('a, string) result) [];
    close_out oc;
    Unix._exit 0
  | pid ->
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let v =
      match (Marshal.from_channel ic : ('a, string) result) with
      | v -> v
      | exception End_of_file -> Error "child exited without a result"
    in
    close_in ic;
    reap pid;
    v

(* ------------------------------------------------------------------ *)
(* In-process merges                                                   *)

type merge_sample = {
  ms_wall_s : float;  (* run_sources through merged_files *)
  ms_alloc_w : float;  (* calling domain only: exact at jobs=1 *)
  ms_top_heap_w : int;
  ms_n_merged : int;
  ms_equivalent : bool;
  ms_digest : string;
  ms_sta_s : float list;
  ms_conformity : float option;
}

let all_equivalent (r : MF.result) =
  List.for_all
    (fun (g : MF.group) ->
      match g.MF.grp_equiv with
      | Some e -> e.Mm_core.Equiv.equivalent
      | None -> true)
    r.MF.groups

(* STA over the merged modes is repeated until [sta_budget_s] is spent
   (at most [sta_max_reps] times) so that small designs still give a
   usable median. *)
let sta_budget_s = 0.6
let sta_max_reps = 5

let merge_once ~jobs ~sta ~conformity inp () =
  let a0 = Spans.alloc_words () in
  let t0 = now_ns () in
  let r = MF.run_sources ~jobs ~design:inp.in_design (mf_sources inp) in
  let files = MF.merged_files r in
  let wall = elapsed_s t0 in
  let alloc = Spans.alloc_words () -. a0 in
  let top_heap = (Gc.quick_stat ()).Gc.top_heap_words in
  let merged = MF.merged_modes r in
  let sta_s =
    if not sta then []
    else
      let rec go acc spent n =
        if n >= sta_max_reps || (n > 0 && spent >= sta_budget_s) then List.rev acc
        else
          let t = now_ns () in
          ignore (Sta.analyze_many inp.in_design merged);
          let s = elapsed_s t in
          go (s :: acc) (spent +. s) (n + 1)
      in
      go [] 0.0 0
  in
  let conformity =
    if not conformity then None
    else
      let individual =
        List.map
          (fun (n, t) ->
            (Mm_sdc.Resolve.mode_of_string inp.in_design ~name:n t)
              .Mm_sdc.Resolve.mode)
          inp.in_sources
      in
      Some
        (Sta.conformity
           ~individual:(Sta.analyze_many inp.in_design individual)
           ~merged:(Sta.analyze_many inp.in_design merged)
           ~tolerance_frac:0.01)
  in
  {
    ms_wall_s = wall;
    ms_alloc_w = alloc;
    ms_top_heap_w = top_heap;
    ms_n_merged = r.MF.n_merged;
    ms_equivalent = all_equivalent r;
    ms_digest = files_digest files;
    ms_sta_s = sta_s;
    ms_conformity = conformity;
  }

let check_merge ~what inp (s : merge_sample) =
  check_output ~what ~preset:inp.in_name ~n_merged:s.ms_n_merged
    ~digest:s.ms_digest;
  check s.ms_equivalent "%s: %s has a group that is not equivalent" what
    inp.in_name

(* Run [step] until the deadline, always at least once; a new step
   starts only if [need] seconds (by default the previous step's
   duration) still fit. *)
let until ?(need = Fun.id) ~deadline step =
  let rec go i acc last =
    let t0 = now_ns () in
    if i > 0 && Int64.to_float (Int64.sub deadline t0) /. 1e9 < need last then
      List.rev acc
    else
      let v = step i in
      go (i + 1) (v :: acc) (elapsed_s t0)
  in
  go 0 [] 0.0

let deadline_after s = Int64.add (now_ns ()) (Int64.of_float (s *. 1e9))

(* ------------------------------------------------------------------ *)
(* Traced pipeline: the merge flow re-driven through each layer's      *)
(* public functions, one benchmark span per call.                      *)

type traced = {
  tr_spans : Spans.span list;
  tr_digest : string;
  tr_n_merged : int;
  tr_equivalent : bool;
  tr_counters : (string * float) list;
}

let counter name = float_of_int (Metrics.get_counter name)

let traced_pipeline inp () =
  Spans.reset ();
  Metrics.reset ();
  Obs.reset ();
  (* Library spans are only counted (prelim.calls), never timed. *)
  Obs.set_enabled true;
  let sp = Spans.with_span in
  let design =
    sp "netlist.parse" (fun () -> Netlist_io.of_string inp.in_design_text)
  in
  let n_commands =
    List.fold_left
      (fun acc (_, t) -> acc + List.length (Mm_sdc.Parser.parse_string t))
      0 inp.in_sources
  in
  let counters = ref [] in
  let add k v = counters := (k, v) :: !counters in
  let equivalent = ref true in
  let merged, files =
    sp "merge" @@ fun () ->
    let modes =
      List.map
        (fun (n, t) ->
          sp "sdc.resolve" (fun () ->
              (Mm_sdc.Resolve.mode_of_string ~file:n design ~name:n t)
                .Mm_sdc.Resolve.mode))
        inp.in_sources
    in
    let sk, _ = sp "tgraph.compile" (fun () -> Mm_timing.Tgraph.skeleton design) in
    add "tgraph.pins" (float_of_int sk.Mm_timing.Tgraph.sk_n_pins);
    let ctx_cache = Mm_timing.Ctx_cache.create () in
    let matrix =
      Pool.with_pool ~jobs:1 @@ fun pool ->
      sp "mergeability" (fun () ->
          Mm_core.Mergeability.analyze ~ctx_cache ~pool modes)
    in
    let pairs = counter "merge.pairs_checked" in
    add "mergeability.pairs_checked" pairs;
    add "mergeability.edge_ratio"
      (float_of_int (List.length (Mm_core.Mergeability.edges matrix))
      /. Float.max pairs 1.0);
    let refine_iters = ref 0 and fixes = ref 0 in
    let merged =
      List.mapi
        (fun gi members ->
          match members with
          | [ single ] -> single
          | _ ->
            let name = Printf.sprintf "merged_%d" gi in
            let prelim =
              sp "prelim" (fun () -> Mm_core.Prelim.merge ~ctx_cache ~name members)
            in
            let refine =
              sp "refine" (fun () ->
                  Mm_core.Refine.run ~ctx_cache ~prelim ~individual:members ())
            in
            let eq =
              sp "equiv" (fun () ->
                  Mm_core.Equiv.check ~ctx_cache
                    ?merged_ctx:refine.Mm_core.Refine.refined_ctx
                    ~individual:members
                    ~rename:(Mm_core.Prelim.rename_of prelim)
                    ~merged:refine.Mm_core.Refine.refined ())
            in
            if not eq.Mm_core.Equiv.equivalent then equivalent := false;
            refine_iters := !refine_iters + refine.Mm_core.Refine.iterations;
            fixes := !fixes + List.length refine.Mm_core.Refine.added_exceptions;
            refine.Mm_core.Refine.refined)
        (Mm_core.Mergeability.clique_modes matrix modes)
    in
    add "refine.iterations" (float_of_int !refine_iters);
    add "refine.fixes_added" (float_of_int !fixes);
    let files =
      sp "render" (fun () ->
          List.mapi
            (fun i m -> Printf.sprintf "merged_%d.sdc" i, Mode.to_sdc m)
            merged)
    in
    merged, files
  in
  let tags0 = counter "sta.tags_propagated" in
  ignore (sp "sta" (fun () -> Sta.analyze_many design merged));
  add "sta.tags_propagated" (counter "sta.tags_propagated" -. tags0);
  List.iter
    (fun k -> add k (counter k))
    [ "compare.endpoints_visited"; "compare.pairs_compared";
      "compare.reconv_points" ];
  add "sdc.commands" (float_of_int n_commands);
  add "prelim.calls"
    (float_of_int
       (List.length
          (List.filter
             (fun (s : Obs.span) -> s.Obs.sp_name = "merge.prelim")
             (Obs.spans ()))));
  Obs.set_enabled false;
  {
    tr_spans = Spans.spans ();
    tr_digest = files_digest files;
    tr_n_merged = List.length merged;
    tr_equivalent = !equivalent;
    tr_counters = !counters;
  }

(* Pool telemetry of one full flow at [jobs]. *)
let pool_probe ~jobs inp () =
  Metrics.reset ();
  let r = MF.run_sources ~jobs ~design:inp.in_design (mf_sources inp) in
  let occupancy =
    match Metrics.get "pool.occupancy" with
    | Some (Metrics.Histogram h) when h.Metrics.h_count > 0 ->
      h.Metrics.h_sum /. float_of_int h.Metrics.h_count
    | _ -> nan
  in
  counter "pool.tasks_executed", occupancy, files_digest (MF.merged_files r)

(* ------------------------------------------------------------------ *)
(* Service: an in-process daemon on loopback                           *)

type op_kind = Hit | Miss

type op = {
  op_kind : op_kind;
  op_preset : string;
  op_latency_s : float;  (* submit to done, as the client saw it *)
  op_queue_wait_s : float option;  (* submit to first non-queued poll *)
  op_ok : bool;
  op_id : string option;
}

(* The service child owns the daemon and its client. The parent drives
   it one slice at a time over a pipe, so service samples interleave
   with the in-process merges over the whole run and every metric sees
   the same mix of machine load. *)
type svc_cmd = Slice of int64  (* run until this deadline *) | Finish

type slice = {
  sl_ops : op list;
  sl_wall_s : float;
}

type svc_final = {
  sv_setup_s : float list;
      (* set-up samples: the service inputs generated, then the daemon
         started *)
  sv_poll_rtt_s : float list;  (* GET /jobs/ID round trips *)
  sv_cache_hits : int;
  sv_cache_misses : int;
  sv_fetch : (string * string * string) list;
      (* (job id, preset, digest of the fetched files) *)
  sv_errors : string list;
}

let str_member k j =
  match Runlog.member k j with Some (Runlog.Str s) -> Some s | _ -> None

let parse_reply body = try Runlog.parse_json body with _ -> Runlog.Null

let fetch_files ~port id =
  let st, body = Httpd.get ~port (Printf.sprintf "/jobs/%s/result" id) in
  if st <> 200 then failwith (Printf.sprintf "GET result of %s: %d" id st);
  let names =
    match Runlog.member "files" (parse_reply body) with
    | Some (Runlog.Arr fs) -> List.filter_map (str_member "name") fs
    | _ -> failwith "result manifest has no files"
  in
  List.map
    (fun n ->
      let st, bytes = Httpd.get ~port (Printf.sprintf "/jobs/%s/result/%s" id n) in
      if st <> 200 then failwith (Printf.sprintf "GET %s of %s: %d" n id st);
      n, bytes)
    names

(* One submission. A hit must be answered 200 from the cache on the
   POST itself; a miss is accepted (202) and polled every
   [poll_interval_s] until done. *)
let submit ~port ~rtts ~lock kind preset body =
  let t0 = now_ns () in
  let fail () =
    { op_kind = kind; op_preset = preset; op_latency_s = elapsed_s t0;
      op_queue_wait_s = None; op_ok = false; op_id = None }
  in
  match Httpd.request ~meth:"POST" ~body ~port "/jobs" with
  | exception _ -> fail ()
  | status, _, reply -> (
    let j = parse_reply reply in
    match kind, status, str_member "id" j with
    | Hit, 200, (Some _ as id) ->
      let ok = str_member "cache" j = Some "hit" && str_member "state" j = Some "done" in
      { op_kind = Hit; op_preset = preset; op_latency_s = elapsed_s t0;
        op_queue_wait_s = None; op_ok = ok; op_id = id }
    | Miss, 202, (Some id as oid) ->
      let queue_wait = ref None in
      let rec poll () =
        Unix.sleepf poll_interval_s;
        let p0 = now_ns () in
        match Httpd.get ~port (Printf.sprintf "/jobs/%s" id) with
        | exception _ -> false
        | st, body ->
          let rtt = elapsed_s p0 in
          Mutex.protect lock (fun () -> rtts := rtt :: !rtts);
          let state = if st = 200 then str_member "state" (parse_reply body) else None in
          if state <> Some "queued" && !queue_wait = None then
            queue_wait := Some (elapsed_s t0);
          (match state with
          | Some ("queued" | "running") -> poll ()
          | Some "done" -> true
          | _ -> false)
      in
      let ok = poll () in
      { op_kind = Miss; op_preset = preset; op_latency_s = elapsed_s t0;
        op_queue_wait_s = !queue_wait; op_ok = ok; op_id = oid }
    | _ -> fail ())

let daemon_config = { Daemon.default_config with Daemon.dc_jobs = Some 1 }

(* Start the daemon [reps] times (keeping the last one) to sample its
   start-up time. *)
let start_daemon ~reps =
  let rec go n acc =
    let t0 = now_ns () in
    let d = Daemon.start daemon_config in
    let acc = elapsed_s t0 :: acc in
    if n <= 1 then d, List.rev acc
    else begin
      Daemon.stop d;
      go (n - 1) acc
    end
  in
  go reps []

(* The closed-loop stream of one client: blocks of twelve submissions in
   a seeded order, two thirds of them hits, so that a run has enough
   hits beyond the p90. The misses are salted B specs, so every miss
   runs the whole pipeline behind the scheduler on a small design. D is
   only ever resubmitted: its 810 KB body loads HTTP, job parsing and
   fingerprinting on every hit without a merge. D makes up three
   quarters of the hits, so the hit median and p90 are D's. *)
let stream_block =
  [ Miss, "B"; Miss, "B"; Miss, "B"; Miss, "B"; Hit, "D"; Hit, "D"; Hit, "D";
    Hit, "D"; Hit, "D"; Hit, "D"; Hit, "B"; Hit, "B" ]

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let cache_stats ~port =
  match Httpd.get ~port "/cache/stats" with
  | 200, body ->
    let stat k =
      match Runlog.member k (parse_reply body) with
      | Some (Runlog.Num n) -> int_of_float n
      | _ -> 0
    in
    stat "hits", stat "misses"
  | _ | (exception _) -> 0, 0

(* Body of the service child: one daemon for the whole run, as a
   long-running service would have. The child generates its own inputs,
   so the daemon's heap never holds the workload's primary design. It
   answers [Slice] commands until [Finish]; its first reply, sent once
   the daemon is warm, tells the parent it may go on. *)
let service_child ~seed ~setup_reps cmd_in reply_out =
  let gen_s, inputs =
    timed_setup ~reps:setup_reps (fun () ->
        List.map (make_input ~seed) service_presets)
  in
  let input name = List.find (fun i -> i.in_name = name) inputs in
  let reply (v : (slice, svc_final) Either.t) =
    Marshal.to_channel reply_out v [];
    flush reply_out
  in
  let daemon, start_s = start_daemon ~reps:setup_reps in
  Fun.protect ~finally:(fun () -> Daemon.stop daemon) @@ fun () ->
  let port = Daemon.port daemon in
  let lock = Mutex.create () in
  let rtts = ref [] and errors = ref [] in
  let submit = submit ~port ~rtts ~lock in
  (* Untimed warm-up: each preset's unsalted spec becomes the first
     cached result, so the stream's early hits have something to hit.
     Bodies are built once here and only resent by hits: a client that
     built an 810 KB body per hit would load the daemon's heap, which it
     shares, while the hit is timed. *)
  let unsalted = List.map (fun i -> i.in_name, spec_body i ~salt:"") inputs in
  List.iter
    (fun (name, body) ->
      let o = submit Miss name body in
      if not o.op_ok then errors := ("warm-up of " ^ name ^ " failed") :: !errors)
    unsalted;
  reply (Either.Left { sl_ops = []; sl_wall_s = 0.0 });
  (* Stream state carried across slices. *)
  let rngs = Array.init stream_clients (fun c -> Random.State.make [| seed; c |]) in
  let pending = Array.make stream_clients [] in
  let last = Array.init stream_clients (fun _ -> Hashtbl.of_seq (List.to_seq unsalted)) in
  let salts = Array.make stream_clients 0 in
  let all_ops = ref [] in
  let client deadline c () =
    let ops = ref [] in
    while now_ns () < deadline do
      if pending.(c) = [] then pending.(c) <- shuffle rngs.(c) stream_block;
      let kind, preset = List.hd pending.(c) in
      pending.(c) <- List.tl pending.(c);
      let body =
        match kind with
        | Hit -> Hashtbl.find last.(c) preset
        | Miss ->
          salts.(c) <- salts.(c) + 1;
          spec_body (input preset)
            ~salt:(Printf.sprintf "# stream %d c%d n%d\n" seed c salts.(c))
      in
      let o = submit kind preset body in
      if kind = Miss && o.op_ok then Hashtbl.replace last.(c) preset body;
      ops := o :: !ops
    done;
    List.rev !ops
  in
  let rec serve () =
    match (Marshal.from_channel cmd_in : svc_cmd) with
    | Finish ->
      let fetch =
        List.filter_map
          (fun o ->
            match o.op_id with
            | Some id when o.op_ok -> (
              match fetch_files ~port id with
              | files -> Some (id, o.op_preset, files_digest files)
              | exception e ->
                errors := Printexc.to_string e :: !errors;
                None)
            | _ -> None)
          !all_ops
      in
      let hits, misses = cache_stats ~port in
      reply
        (Either.Right
           { sv_setup_s = List.map2 ( +. ) gen_s start_s; sv_poll_rtt_s = !rtts; sv_cache_hits = hits;
             sv_cache_misses = misses; sv_fetch = fetch; sv_errors = !errors })
    | Slice deadline ->
      let t0 = now_ns () in
      let results = Array.make stream_clients [] in
      let threads =
        List.init stream_clients (fun c ->
            Thread.create (fun () -> results.(c) <- client deadline c ()) ())
      in
      List.iter Thread.join threads;
      let ops = List.concat (Array.to_list results) in
      all_ops := List.rev_append ops !all_ops;
      reply (Either.Left { sl_ops = ops; sl_wall_s = elapsed_s t0 });
      serve ()
  in
  serve ()

(* Fork the service child; returns the command and reply channels and
   its pid. *)
let spawn_service ~seed ~setup_reps =
  flush stdout;
  flush stderr;
  let cmd_r, cmd_w = Unix.pipe ~cloexec:true () in
  let rep_r, rep_w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close cmd_w;
    Unix.close rep_r;
    let ic = Unix.in_channel_of_descr cmd_r and oc = Unix.out_channel_of_descr rep_w in
    (try service_child ~seed ~setup_reps ic oc
     with e -> Printf.eprintf "service child: %s\n%!" (Printexc.to_string e));
    close_out_noerr oc;
    Unix._exit 0
  | pid ->
    Unix.close cmd_r;
    Unix.close rep_w;
    Unix.out_channel_of_descr cmd_w, Unix.in_channel_of_descr rep_r, pid

let service_reply (_, ic, _) =
  match (Marshal.from_channel ic : (slice, svc_final) Either.t) with
  | v -> v
  | exception End_of_file -> failwith "service child exited"

let service_call ((oc, _, _) as svc) cmd =
  Marshal.to_channel oc (cmd : svc_cmd) [];
  flush oc;
  service_reply svc

let service_close (oc, ic, pid) =
  close_out_noerr oc;
  close_in_noerr ic;
  reap pid

(* ------------------------------------------------------------------ *)
(* Result line                                                         *)

type value = V of float | Not_measured

let result_json ~correct metrics =
  let num = function
    | V v when Float.is_integer v && Float.abs v < 1e15 -> Printf.sprintf "%.0f" v
    | V v when Float.is_finite v -> Printf.sprintf "%.17g" v
    | V _ | Not_measured -> "null"
  in
  Printf.sprintf {|{"correct":%b,"attempted":%d,"failed":%d,"metrics":{%s}}|}
    correct !attempted !failed
    (String.concat ","
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf {|"%s":{"value":%s,"unit":"%s"}|} name (num v) unit)
          metrics))

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc text)

(* ------------------------------------------------------------------ *)
(* Main                                                                *)

let usage =
  "mmbench.exe --workload NAME --seed N --seconds S --trace 0|1\n  workloads: "
  ^ String.concat ", " (List.map (fun w -> w.w_name) workloads)

let parse_args () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      "--workload", Arg.Set_string workload, "NAME workload to run";
      "--seed", Arg.Set_int seed, "N input seed";
      "--seconds", Arg.Set_float seconds, "S measuring time";
      "--trace", Arg.Set_int trace, "0|1 per-layer run";
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  match List.find_opt (fun w -> w.w_name = !workload) workloads with
  | Some w when !seconds > 0.0 && (!trace = 0 || !trace = 1) ->
    w, !seed, !seconds, !trace = 1
  | _ ->
    prerr_endline usage;
    exit 2

let child_or_fail what = function
  | Ok v -> v
  | Error e ->
    log "FAILED: %s: %s" what e;
    incr attempted;
    incr failed;
    raise Exit

let () =
  let w, seed, seconds, trace = parse_args () in
  (* Never more merge domains than the hardware offers. *)
  let jobs2 = min 2 (Domain.recommended_domain_count ()) in
  log "mmbench %s seed=%d seconds=%g trace=%b hardware_domains=%d j2_jobs=%d"
    w.w_name seed seconds trace (Domain.recommended_domain_count ()) jobs2;
  (* Set-up: the service child is forked first and generates its own
     inputs; once its daemon is warm, the parent generates, renders and
     parses back the primary input. Each set-up sample adds one of each
     side's repetitions. *)
  let setup_reps = 3 in
  let detail = Buffer.create 4096 in
  let metrics = ref [] in
  let emit name unit v = metrics := (name, unit, v) :: !metrics in
  let samples l = String.concat "," (List.map (Printf.sprintf "%.6f") l) in
  (try
     let svc = spawn_service ~seed ~setup_reps in
     Fun.protect ~finally:(fun () -> service_close svc) @@ fun () ->
     ignore (service_reply svc);
     let gen_s, primary =
       timed_setup ~reps:setup_reps (fun () -> make_input ~seed w.w_primary)
     in
     Gc.compact ();
     let run_deadline = deadline_after seconds in
     (* One stream slice after each round of in-process merges, long
        enough to keep the workload's in-process share of the time. *)
     let slice ~inproc_s =
       let slice_s = inproc_s *. (1.0 -. w.w_inproc_share) /. w.w_inproc_share in
       let d = deadline_after slice_s in
       match service_call svc (Slice (if d < run_deadline then d else run_deadline)) with
       | Either.Left sl -> sl
       | Either.Right _ -> failwith "service child: unexpected reply"
     in
     (* Fetched bytes are held to the pinned digest, which every
        in-process merge is held to as well: daemon bytes and
        in-process bytes agree whenever both checks pass. *)
     let finish slices =
       match service_call svc Finish with
       | Either.Right fin ->
         let ops = List.concat_map (fun sl -> sl.sl_ops) slices in
         List.iter (fun e -> check false "service: %s" e) fin.sv_errors;
         List.iter
           (fun o ->
             check o.op_ok "service: %s %s submission failed" o.op_preset
               (if o.op_kind = Hit then "hit" else "miss"))
           ops;
         List.iter
           (fun (id, preset, digest) ->
             check
               (digest = snd (List.assoc preset pinned))
               "service: job %s (%s) fetched bytes differ from the in-process merge"
               id preset)
           fin.sv_fetch;
         ops, fin
       | Either.Left _ -> failwith "service child: unexpected reply"
     in
     (* A slice is cut at the run deadline, so another round only needs
        room for its merges. *)
     let need last = last *. w.w_inproc_share in
     let merge_child ~what ~jobs ~sta ~conformity =
       let s =
         child_or_fail what (in_child (merge_once ~jobs ~sta ~conformity primary))
       in
       check_merge ~what primary s;
       s
     in
     if not trace then begin
       (* End-to-end run: tracing off. *)
       let iters =
         until ~need ~deadline:run_deadline (fun i ->
             let t0 = now_ns () in
             let s1 = merge_child ~what:"jobs=1" ~jobs:1 ~sta:true ~conformity:(i = 0) in
             let s2 =
               if jobs2 < 2 then None
               else begin
                 let s2 = merge_child ~what:"jobs=2" ~jobs:jobs2 ~sta:false ~conformity:false in
                 check (s2.ms_digest = s1.ms_digest) "jobs=2 bytes differ from jobs=1";
                 Some s2
               end
             in
             s1, s2, slice ~inproc_s:(elapsed_s t0))
       in
       let j1 = List.map (fun (a, _, _) -> a) iters
       and j2 = List.filter_map (fun (_, b, _) -> b) iters
       and slices = List.map (fun (_, _, c) -> c) iters in
       let ops, fin = finish slices in
       let lat kind =
         List.filter_map
           (fun o -> if o.op_kind = kind && o.op_ok then Some o.op_latency_s else None)
           ops
       in
       let hits = lat Hit and misses = lat Miss in
       let sta = List.concat_map (fun s -> s.ms_sta_s) j1 in
       let mb words = float_of_int words *. float_of_int (Sys.word_size / 8) /. 1e6 in
       let wall l = List.map (fun s -> s.ms_wall_s) l in
       emit "merge_s" "s" (V (median (wall j1)));
       emit "merge_j2_s" "s" (if j2 = [] then Not_measured else V (median (wall j2)));
       emit "merge_alloc_mw" "Mw" (V (median (List.map (fun s -> s.ms_alloc_w /. 1e6) j1)));
       emit "peak_heap_mb" "MB" (V (median (List.map (fun s -> mb s.ms_top_heap_w) j1)));
       emit "sta_merged_s" "s" (V (median sta));
       emit "merged_modes" "count" (V (float_of_int (List.hd j1).ms_n_merged));
       emit "conformity_pct" "%" (V (Option.value (List.hd j1).ms_conformity ~default:nan));
       emit "svc_miss_s" "s" (V (median misses));
       emit "svc_hit_s" "s" (V (median hits));
       emit "svc_hit_p90_s" "s" (V (quantile 0.9 hits));
       emit "svc_jobs_per_s" "1/s"
         (V (float_of_int (List.length (List.filter (fun o -> o.op_ok) ops))
             /. List.fold_left (fun a sl -> a +. sl.sl_wall_s) 0.0 slices));
       let setup = List.map2 ( +. ) gen_s fin.sv_setup_s in
       emit "setup_s" "s" (V (median setup));
       Printf.bprintf detail
         {|{"workload":"%s","seed":%d,"trace":false,"hardware_domains":%d,"j2_jobs":%d,"poll_interval_s":%g,"setup_s":[%s],"merge_j1_s":[%s],"merge_j2_s":[%s],"sta_s":[%s],"svc_miss_s":[%s],"svc_hit_s":[%s]}|}
         w.w_name seed (Domain.recommended_domain_count ()) jobs2 poll_interval_s
         (samples setup)
         (samples (wall j1)) (samples (wall j2)) (samples sta) (samples misses)
         (samples hits);
       log "samples: %d merges at jobs=1, %d at jobs=%d, %d STA, %d hits, %d misses (poll every %gs)"
         (List.length j1) (List.length j2) jobs2 (List.length sta) (List.length hits)
         (List.length misses) poll_interval_s
     end
     else begin
       (* Traced run: the pipeline through the benchmark's own spans,
          alternating with untraced merges for the overhead. *)
       let pool = ref None in
       let iters =
         until ~need ~deadline:run_deadline (fun i ->
             let t0 = now_ns () in
             let tr = child_or_fail "traced pipeline" (in_child (traced_pipeline primary)) in
             check_output ~what:"traced pipeline" ~preset:primary.in_name
               ~n_merged:tr.tr_n_merged ~digest:tr.tr_digest;
             check tr.tr_equivalent "traced pipeline: a group is not equivalent";
             let s = merge_child ~what:"jobs=1" ~jobs:1 ~sta:false ~conformity:false in
             if i = 0 then begin
               let tasks, occupancy, digest =
                 child_or_fail "pool probe" (in_child (pool_probe ~jobs:jobs2 primary))
               in
               check (digest = s.ms_digest) "jobs=%d bytes differ from jobs=1" jobs2;
               pool := Some (tasks, occupancy)
             end;
             tr, s, slice ~inproc_s:(elapsed_s t0))
       in
       let trs = List.map (fun (a, _, _) -> a) iters
       and untraced = List.map (fun (_, b, _) -> b) iters
       and slices = List.map (fun (_, _, c) -> c) iters in
       let ops, fin = finish slices in
       let tasks, occupancy = Option.get !pool in
       (* Job parsing and fingerprinting, called directly on the body
          the daemon is sent. *)
       let body = spec_body primary ~salt:"" in
       let spec_parse_s, fp_s =
         List.split
           (List.init 5 (fun _ ->
                let t0 = now_ns () in
                let spec =
                  match Job.spec_of_json body with
                  | Ok s -> s
                  | Error e -> failwith ("spec_of_json: " ^ e)
                in
                let t1 = now_ns () in
                ignore (Job.fingerprint spec);
                Int64.to_float (Int64.sub t1 t0) /. 1e9, elapsed_s t1))
       in
       let per_pipeline f = median (List.map f trs) in
       let layer tr name pick =
         List.fold_left
           (fun acc (n, (_, s, a)) -> if n = name then acc +. pick s a else acc)
           0.0 (Spans.by_layer tr.tr_spans)
       in
       let wall name = per_pipeline (fun tr -> layer tr name (fun s _ -> s)) in
       let alloc name = per_pipeline (fun tr -> layer tr name (fun _ a -> a /. 1e6)) in
       let ctr name =
         per_pipeline (fun tr ->
             Option.value (List.assoc_opt name tr.tr_counters) ~default:nan)
       in
       let root tr =
         List.fold_left
           (fun acc (s : Spans.span) ->
             if s.Spans.name = "merge" then acc +. Spans.dur_s s else acc)
           0.0 tr.tr_spans
       in
       let traced_merge = median (List.map root trs) in
       let untraced_merge = median (List.map (fun s -> s.ms_wall_s) untraced) in
       List.iter
         (fun l ->
           emit (l ^ ".wall_s") "s" (V (wall l));
           emit (l ^ ".alloc_mw") "Mw" (V (alloc l)))
         [ "sdc.resolve"; "tgraph.compile"; "mergeability"; "prelim"; "refine";
           "equiv"; "sta"; "render" ];
       emit "merge.self_s" "s" (V (wall "merge"));
       emit "netlist.parse.wall_s" "s" (V (wall "netlist.parse"));
       List.iter
         (fun (k, unit) -> emit k unit (V (ctr k)))
         [ "sdc.commands", "count"; "tgraph.pins", "count";
           "mergeability.pairs_checked", "count"; "mergeability.edge_ratio", "ratio";
           "prelim.calls", "count"; "refine.iterations", "count";
           "refine.fixes_added", "count"; "compare.endpoints_visited", "count";
           "compare.pairs_compared", "count"; "compare.reconv_points", "count";
           "sta.tags_propagated", "count" ];
       emit "pool.tasks_executed" "count" (V tasks);
       emit "pool.occupancy" "ratio" (V occupancy);
       emit "job.spec_parse.wall_s" "s" (V (median spec_parse_s));
       emit "fingerprint.wall_s" "s" (V (median fp_s));
       emit "rcache.hit_ratio" "ratio"
         (V (float_of_int fin.sv_cache_hits
             /. float_of_int (max 1 (fin.sv_cache_hits + fin.sv_cache_misses))));
       emit "scheduler.queue_wait_s" "s"
         (V (median (List.filter_map (fun o -> o.op_queue_wait_s) ops)));
       emit "httpd.roundtrip_s" "s" (V (median fin.sv_poll_rtt_s));
       emit "trace.merge_s" "s" (V traced_merge);
       emit "trace.overhead_s" "s" (V (traced_merge -. untraced_merge));
       (* Self-time table on stderr: which layer the merge spent. *)
       let last = List.nth trs (List.length trs - 1) in
       let total = root last in
       log "self time per layer (last traced pipeline; merge = %.3fs):" total;
       List.iter
         (fun (n, (calls, s, a)) ->
           log "  %-16s calls=%-4d self=%8.4fs (%5.1f%% of merge) alloc=%8.2f Mw" n
             calls s (100.0 *. s /. total) (a /. 1e6))
         (Spans.by_layer last.tr_spans);
       Printf.bprintf detail
         {|{"workload":"%s","seed":%d,"trace":true,"hardware_domains":%d,"pool_jobs":%d,"poll_interval_s":%g,"pipelines":[%s]}|}
         w.w_name seed (Domain.recommended_domain_count ()) jobs2 poll_interval_s
         (String.concat ",\n" (List.map (fun tr -> Spans.to_json tr.tr_spans) trs))
     end
   with Exit -> ());
  let correct = !failed = 0 in
  let out_dir = Filename.concat "mmbench" "out" in
  (try
     if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
     write_file
       (Filename.concat out_dir
          (Printf.sprintf "%s-seed%d-trace%d.json" w.w_name seed (Bool.to_int trace)))
       (Buffer.contents detail ^ "\n")
   with Sys_error e -> log "cannot write details: %s" e);
  List.iter
    (fun (n, u, v) ->
      log "  %-28s %s %s" n
        (match v with V x -> Printf.sprintf "%.6g" x | Not_measured -> "not measured")
        u)
    (List.rev !metrics);
  print_endline (result_json ~correct (List.rev !metrics));
  if not correct then exit 1

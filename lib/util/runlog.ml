(* Run history and the statistical regression gate (DESIGN.md §13).
   Records are JSONL lines written and read through Json; floats use
   its exact rule, so every value reads back bit-for-bit. *)

let schema_version = "modemerge-runlog/1"
let default_dir = Filename.concat ".modemerge" "history"

type json = Json.t = Null | Bool of bool | Int of int | Num of float
  | Str of string | Arr of json list | Obj of (string * json) list
  | Rounded of Json.rule * float

exception Parse_error = Json.Parse_error

let parse_json = Json.parse
let member = Json.member
let to_str = function Json.Str s -> Some s | _ -> None
let to_num = function Json.Num f -> Some f | _ -> None
let to_int j = Option.map int_of_float (to_num j)

(* ------------------------------------------------------------------ *)
(* Records                                                             *)

type span_sum = {
  ss_name : string;
  ss_calls : int;
  ss_total_s : float;
  ss_self_s : float;
}

type record = {
  r_schema : string;
  r_label : string;
  r_ts : float;
  r_git_rev : string;
  r_jobs : int;
  r_spans : span_sum list;
  r_counters : (string * int) list;
  r_gauges : (string * float) list;
  r_gc : (string * float) list;
  r_events : (string * int) list; (* cumulative Eventlog kind counts *)
}

let git_rev () =
  let read_first_line path =
    try
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Some (String.trim (input_line ic)))
    with _ -> None
  in
  let rec find_root dir depth =
    if depth > 10 then None
    else if Sys.file_exists (Filename.concat dir ".git/HEAD") then Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else find_root parent (depth + 1)
  in
  match (try find_root (Sys.getcwd ()) 0 with _ -> None) with
  | None -> "unknown"
  | Some root -> (
    match read_first_line (Filename.concat root ".git/HEAD") with
    | Some line when String.length line > 5 && String.sub line 0 5 = "ref: "
      -> (
      let ref_path =
        Filename.concat root
          (Filename.concat ".git" (String.sub line 5 (String.length line - 5)))
      in
      match read_first_line ref_path with
      | Some rev when rev <> "" -> rev
      | Some _ | None -> "unknown")
    | Some rev when rev <> "" -> rev
    | Some _ | None -> "unknown")

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let capture ~label ~jobs () =
  let spans =
    List.map
      (fun (name, calls, total_s, self_s) ->
        { ss_name = name; ss_calls = calls; ss_total_s = total_s; ss_self_s = self_s })
      (Obs.span_summaries ())
  in
  let gauges =
    (* gc.* gauges live in the dedicated gc section, not here. *)
    List.filter_map
      (fun (i : Metrics.item) ->
        match i.Metrics.value with
        | Metrics.Gauge g when not (starts_with ~prefix:"gc." i.Metrics.name) ->
          Some (i.Metrics.name, g)
        | _ -> None)
      (Metrics.snapshot ())
  in
  {
    r_schema = schema_version;
    r_label = label;
    r_ts = Unix.gettimeofday ();
    r_git_rev = git_rev ();
    r_jobs = jobs;
    r_spans = spans;
    r_counters = Metrics.counters ();
    r_gauges = gauges;
    r_gc = Obs.gc_totals ();
    r_events = Eventlog.counts ();
  }

(* ------------------------------------------------------------------ *)
(* JSONL round-trip                                                    *)

let to_json r =
  let open Json in
  let span ss =
    ( ss.ss_name,
      Obj
        [ "calls", Int ss.ss_calls; "total_s", exact ss.ss_total_s;
          "self_s", exact ss.ss_self_s ] )
  in
  let ints l = Obj (List.map (fun (k, v) -> k, Int v) l) in
  let nums l = Obj (List.map (fun (k, v) -> k, exact v) l) in
  to_string
    (Obj
       [ "schema", Str r.r_schema; "label", Str r.r_label; "ts", exact r.r_ts;
         "git_rev", Str r.r_git_rev; "jobs", Int r.r_jobs;
         "spans", Obj (List.map span r.r_spans);
         "counters", ints r.r_counters; "gauges", nums r.r_gauges;
         "gc", nums r.r_gc; "events", ints r.r_events ])

let of_json_string line =
  match Json.parse line with
  | exception Json.Parse_error _ -> None
  | j when Json.member "schema" j = None -> None
  | j ->
    let get conv v k d =
      Option.value ~default:d (Option.bind (Json.member k v) conv)
    in
    (* The fields of object [k] that [conv] accepts. *)
    let fields k conv =
      match Json.member k j with
      | Some (Json.Obj fs) ->
        List.filter_map
          (fun (name, v) -> Option.map (fun x -> name, x) (conv v))
          fs
      | _ -> []
    in
    let span = function
      | Json.Obj _ as v ->
        Some (get to_int v "calls" 0, get to_num v "total_s" 0., get to_num v "self_s" 0.)
      | _ -> None
    in
    Some
      {
        r_schema = get to_str j "schema" "";
        r_label = get to_str j "label" "";
        r_ts = get to_num j "ts" 0.;
        r_git_rev = get to_str j "git_rev" "unknown";
        r_jobs = get to_int j "jobs" 1;
        r_spans =
          List.map
            (fun (ss_name, (ss_calls, ss_total_s, ss_self_s)) ->
              { ss_name; ss_calls; ss_total_s; ss_self_s })
            (fields "spans" span);
        r_counters = fields "counters" to_int;
        r_gauges = fields "gauges" to_num;
        r_gc = fields "gc" to_num;
        r_events = fields "events" to_int;
      }

(* ------------------------------------------------------------------ *)
(* History files                                                       *)

let rec mkdir_p dir =
  if dir = "" || dir = "." || dir = "/" || Sys.file_exists dir then ()
  else begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let history_file ~dir ~label = Filename.concat dir (label ^ ".jsonl")

let append ?(dir = default_dir) r =
  mkdir_p dir;
  let path = history_file ~dir ~label:r.r_label in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (to_json r);
      output_char oc '\n');
  path

let load ?(dir = default_dir) ~label () =
  let path = history_file ~dir ~label in
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go acc =
          match input_line ic with
          | exception End_of_file -> List.rev acc
          | line -> (
            match String.trim line with
            | "" -> go acc
            | line -> (
              (* Skip damaged or foreign-schema lines instead of
                 failing the run: history is advisory. *)
              match of_json_string line with
              | Some r when r.r_schema = schema_version -> go (r :: acc)
              | Some _ | None -> go acc))
        in
        go [])
  end

let last n xs =
  let len = List.length xs in
  if len <= n then xs else List.filteri (fun i _ -> i >= len - n) xs

(* ------------------------------------------------------------------ *)
(* Regression gate                                                     *)

type status = Regression | Improvement | Ok | Noisy | New | TooSmall

type verdict = {
  v_name : string;
  v_status : status;
  v_current_s : float;
  v_mean_s : float;
  v_ci_s : float;
  v_cv : float;
  v_n_base : int;
}

type check_config = {
  threshold_pct : float;
  min_self_s : float;
  max_cv : float;
  window : int;
}

let default_config =
  { threshold_pct = 10.; min_self_s = 0.01; max_cv = 1.0; window = 10 }

let status_label = function
  | Regression -> "REGRESSION"
  | Improvement -> "improvement"
  | Ok -> "ok"
  | Noisy -> "noisy"
  | New -> "new"
  | TooSmall -> "too-small"

let check ?(config = default_config) ~baselines current =
  let base_self name =
    List.filter_map
      (fun r ->
        Option.map
          (fun ss -> ss.ss_self_s)
          (List.find_opt (fun ss -> ss.ss_name = name) r.r_spans))
      baselines
  in
  List.map
    (fun ss ->
      let cur = ss.ss_self_s in
      let base = base_self ss.ss_name in
      let nb = List.length base in
      if nb = 0 then
        {
          v_name = ss.ss_name;
          v_status = New;
          v_current_s = cur;
          v_mean_s = 0.;
          v_ci_s = 0.;
          v_cv = 0.;
          v_n_base = 0;
        }
      else begin
        let m = Stat.mean base in
        let ci = Stat.ci95_halfwidth base in
        (* The CI alone underestimates the noise of a short window
           (1.96 is the asymptotic z, not a small-n t-quantile), so the
           band also covers the observed baseline envelope: a value no
           worse than a previously recorded baseline never flags. *)
        let bmax = List.fold_left Float.max Float.neg_infinity base in
        let bmin = List.fold_left Float.min Float.infinity base in
        let up_band = Float.max ci (bmax -. m) in
        let dn_band = Float.max ci (m -. bmin) in
        let cv = if m > 0. then Stat.stddev base /. m else 0. in
        let min_s = config.min_self_s in
        let thr = config.threshold_pct /. 100. in
        let status =
          if cur < min_s && m < min_s then
            (* Both sides under the absolute floor: micro-spans whose
               relative jitter is pure noise. *)
            TooSmall
          else if cur > (m *. (1. +. thr)) +. up_band && cur -. m > min_s then
            if cv <= config.max_cv then Regression
            else if cur > (2. *. (m +. up_band)) +. min_s then
              (* Unstable baseline, but the current run is beyond even
                 double the noise band — a 2x slowdown must not hide
                 behind its own noise. *)
              Regression
            else Noisy
          else if cur < (m *. (1. -. thr)) -. dn_band && m -. cur > min_s then
            if cv <= config.max_cv then Improvement else Ok
          else Ok
        in
        {
          v_name = ss.ss_name;
          v_status = status;
          v_current_s = cur;
          v_mean_s = m;
          v_ci_s = ci;
          v_cv = cv;
          v_n_base = nb;
        }
      end)
    current.r_spans

let has_regression vs = List.exists (fun v -> v.v_status = Regression) vs

let delta_pct v =
  if v.v_mean_s > 0. then
    100. *. (v.v_current_s -. v.v_mean_s) /. v.v_mean_s
  else 0.

let check_report vs =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "%-36s %10s %10s %9s %5s  %s\n" "span" "self(s)"
       "base(s)" "ci95" "n" "status");
  List.iter
    (fun v ->
      let trail =
        match v.v_status with
        | New -> "new"
        | TooSmall -> "too-small"
        | s ->
          Printf.sprintf "%s (%+.1f%%)" (status_label s) (delta_pct v)
      in
      Buffer.add_string b
        (Printf.sprintf "%-36s %10.4f %10.4f %9.4f %5d  %s\n" v.v_name
           v.v_current_s v.v_mean_s v.v_ci_s v.v_n_base trail))
    vs;
  Buffer.contents b

let diff_report older newer =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "run %s (jobs=%d) -> %s (jobs=%d)\n" older.r_git_rev
       older.r_jobs newer.r_git_rev newer.r_jobs);
  Buffer.add_string b
    (Printf.sprintf "%-36s %10s %10s %9s\n" "span" "old self(s)" "new self(s)"
       "delta");
  List.iter
    (fun ss ->
      let old_self =
        Option.map
          (fun o -> o.ss_self_s)
          (List.find_opt (fun o -> o.ss_name = ss.ss_name) older.r_spans)
      in
      match old_self with
      | None ->
        Buffer.add_string b
          (Printf.sprintf "%-36s %10s %10.4f %9s\n" ss.ss_name "-" ss.ss_self_s
             "new")
      | Some o ->
        let delta =
          if o > 0. then Printf.sprintf "%+.1f%%" (100. *. (ss.ss_self_s -. o) /. o)
          else "-"
        in
        Buffer.add_string b
          (Printf.sprintf "%-36s %10.4f %10.4f %9s\n" ss.ss_name o ss.ss_self_s
             delta))
    newer.r_spans;
  let gc_val r k = Option.value ~default:0. (List.assoc_opt k r.r_gc) in
  let old_alloc = gc_val older "gc.minor_words" +. gc_val older "gc.major_words" in
  let new_alloc = gc_val newer "gc.minor_words" +. gc_val newer "gc.major_words" in
  if old_alloc > 0. || new_alloc > 0. then
    Buffer.add_string b
      (Printf.sprintf "%-36s %10.3f %10.3f %9s\n" "gc allocated (Mwords)"
         (old_alloc /. 1e6) (new_alloc /. 1e6)
         (if old_alloc > 0. then
            Printf.sprintf "%+.1f%%" (100. *. (new_alloc -. old_alloc) /. old_alloc)
          else "-"));
  Buffer.contents b

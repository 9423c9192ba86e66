(* Job specs: the POST /jobs wire format and the state vocabulary. *)

module Merge_flow = Mm_core.Merge_flow
module Json = Mm_util.Json

type options = {
  opt_policy : Merge_flow.policy;
  opt_check_equivalence : bool;
  opt_tolerance : Mm_util.Toler.t option;
  opt_annotate : bool;
}

let default_options =
  {
    opt_policy = Merge_flow.Strict;
    opt_check_equivalence = true;
    opt_tolerance = None;
    opt_annotate = false;
  }

type spec = {
  sp_design_format : string;
  sp_design_text : string;
  sp_sources : (string * string) list;
  sp_options : options;
  sp_priority : int;
}

let policy_to_string = function
  | Merge_flow.Strict -> "strict"
  | Merge_flow.Permissive -> "permissive"

let fingerprint spec =
  Fingerprint.compute ~design_format:spec.sp_design_format
    ~design_text:spec.sp_design_text ~sources:spec.sp_sources
    ~policy:(policy_to_string spec.sp_options.opt_policy)
    ~check_equivalence:spec.sp_options.opt_check_equivalence
    ~tolerance:
      (Option.map
         (fun t -> t.Mm_util.Toler.rel, t.Mm_util.Toler.abs)
         spec.sp_options.opt_tolerance)
    ~annotate:spec.sp_options.opt_annotate

(* ------------------------------------------------------------------ *)
(* Wire format                                                         *)

let spec_of_json body =
  let ( let* ) = Result.bind in
  let require name v =
    match v with Some x -> Ok x | None -> Error ("missing or invalid " ^ name)
  in
  match Json.parse body with
  | exception Json.Parse_error msg -> Error ("malformed JSON: " ^ msg)
  | j ->
    let* design = require {|"design"|} (Json.member "design" j) in
    let* design_text =
      require {|"design.text"|} (Json.str_member "text" design)
    in
    let* design_format =
      match Json.member "format" design with
      | None -> Ok "nl"
      | Some (Json.Str ("nl" | "v" as f)) -> Ok f
      | Some _ -> Error {|unknown "design.format" (want "nl" or "v")|}
    in
    let* sources_j =
      match Json.member "sources" j with
      | Some (Json.Arr l) when l <> [] -> Ok l
      | _ -> Error {|missing or empty "sources" array|}
    in
    let* sources =
      List.fold_left
        (fun acc s ->
          let* acc = acc in
          let* name =
            require {|"sources[].name"|} (Json.str_member "name" s)
          in
          let* text =
            require {|"sources[].text"|} (Json.str_member "text" s)
          in
          Ok ((name, text) :: acc))
        (Ok []) sources_j
    in
    let sources = List.rev sources in
    let opts = Json.member "options" j in
    let opt name = Option.bind opts (Json.member name) in
    let* policy =
      match opt "policy" with
      | None -> Ok default_options.opt_policy
      | Some (Json.Str "strict") -> Ok Merge_flow.Strict
      | Some (Json.Str "permissive") -> Ok Merge_flow.Permissive
      | Some _ -> Error {|unknown "options.policy" (want "strict" or "permissive")|}
    in
    let* check_equivalence =
      match opt "check_equivalence" with
      | None -> Ok default_options.opt_check_equivalence
      | Some (Json.Bool b) -> Ok b
      | Some _ -> Error {|"options.check_equivalence" must be a boolean|}
    in
    let* tolerance =
      match opt "tolerance" with
      | None -> Ok None
      | Some t -> (
        match Json.member "rel" t, Json.member "abs" t with
        | Some (Json.Num rel), Some (Json.Num abs) ->
          Ok (Some { Mm_util.Toler.rel; abs })
        | _ -> Error {|"options.tolerance" wants {"rel": float, "abs": float}|})
    in
    let* annotate =
      match opt "annotate" with
      | None -> Ok default_options.opt_annotate
      | Some (Json.Bool b) -> Ok b
      | Some _ -> Error {|"options.annotate" must be a boolean|}
    in
    let* priority =
      match Json.member "priority" j with
      | None -> Ok 0
      | Some (Json.Num n) when Float.is_integer n -> Ok (int_of_float n)
      | Some _ -> Error {|"priority" must be an integer|}
    in
    Ok
      {
        sp_design_format = design_format;
        sp_design_text = design_text;
        sp_sources = sources;
        sp_options =
          {
            opt_policy = policy;
            opt_check_equivalence = check_equivalence;
            opt_tolerance = tolerance;
            opt_annotate = annotate;
          };
        sp_priority = priority;
      }

let spec_to_json spec =
  let open Json in
  let o = spec.sp_options in
  let tolerance =
    match o.opt_tolerance with
    | None -> []
    | Some { Mm_util.Toler.rel; abs } ->
      [ "tolerance", Obj [ "rel", exact rel; "abs", exact abs ] ]
  in
  let source (name, text) = Obj [ "name", Str name; "text", Str text ] in
  let options =
    [ "policy", Str (policy_to_string o.opt_policy);
      "check_equivalence", Bool o.opt_check_equivalence ]
    @ tolerance @ [ "annotate", Bool o.opt_annotate ]
  in
  to_string
    (Obj
       [ ( "design",
           Obj [ "format", Str spec.sp_design_format; "text", Str spec.sp_design_text ] );
         "sources", Arr (List.map source spec.sp_sources);
         "options", Obj options; "priority", Int spec.sp_priority ])

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)

type state =
  | Queued
  | Running
  | Done
  | Failed of string
  | Cancelled of string

let state_to_string = function
  | Queued -> "queued"
  | Running -> "running"
  | Done -> "done"
  | Failed _ -> "failed"
  | Cancelled _ -> "cancelled"

type origin = Computed | Cache_hit | Coalesced

let origin_to_string = function
  | Computed -> "computed"
  | Cache_hit -> "hit"
  | Coalesced -> "coalesced"

type summary = {
  sm_n_individual : int;
  sm_n_merged : int;
  sm_reduction_percent : float;
  sm_runtime_s : float;
  sm_quarantined : string list;
  sm_degraded : int;
}

type outcome = { oc_files : (string * string) list; oc_summary : summary }

let outcome_of_result ~annotate (r : Merge_flow.result) =
  {
    oc_files = Merge_flow.merged_files ~annotate r;
    oc_summary =
      {
        sm_n_individual = r.Merge_flow.n_individual;
        sm_n_merged = r.Merge_flow.n_merged;
        sm_reduction_percent = r.Merge_flow.reduction_percent;
        sm_runtime_s = r.Merge_flow.runtime_s;
        sm_quarantined =
          List.map
            (fun q -> q.Merge_flow.q_name)
            r.Merge_flow.quarantined;
        sm_degraded = List.length r.Merge_flow.degraded;
      };
  }

let json_of_summary s =
  Json.(
    Obj
      [ "n_individual", Int s.sm_n_individual; "n_merged", Int s.sm_n_merged;
        "reduction_percent", display s.sm_reduction_percent;
        "runtime_s", display s.sm_runtime_s;
        "quarantined", strings s.sm_quarantined; "degraded", Int s.sm_degraded ])

let summary_json s = Json.to_string (json_of_summary s)

module Diag = Mm_util.Diag
module Json = Mm_util.Json
module Metrics = Mm_util.Metrics
module Prov = Mm_util.Prov

let schema_version = 2

let mandatory_keys =
  [
    "audit_schema_version"; "summary"; "mergeability"; "groups"; "coverage";
    "governance";
  ]

(* The coverage section reads only counters, which the parallel-stress
   contract keeps byte-identical across --jobs values; gauges (e.g.
   merge.jobs) and timings are deliberately excluded so the audit file
   itself is jobs-invariant. *)
let coverage_counters =
  [
    "compare.endpoints_visited";
    "compare.endpoints_pruned";
    "compare.pairs_compared";
    "compare.reconv_points";
    "merge.pairs_checked";
    "merge.cliques";
  ]

let summary_json (r : Merge_flow.result) =
  Json.(
    Obj
      [ "n_individual", Int r.Merge_flow.n_individual;
        "n_merged", Int r.Merge_flow.n_merged;
        "reduction_percent", display r.Merge_flow.reduction_percent;
        "cliques", Int (List.length r.Merge_flow.mergeability.Mergeability.cliques);
        "quarantined", Int (List.length r.Merge_flow.quarantined);
        "degraded", Int (List.length r.Merge_flow.degraded) ])

(* Verdict matrix in canonical (i, j), i < j index order — never in
   hash-table order (DESIGN.md §11). *)
let mergeability_json (m : Mergeability.t) =
  let names = m.Mergeability.mode_names in
  let n = Array.length names in
  let pairs = ref [] in
  for i = n - 1 downto 0 do
    for j = n - 1 downto i + 1 do
      let reasons =
        match Hashtbl.find_opt m.Mergeability.pair_reasons (i, j) with
        | Some rs -> rs
        | None -> []
      in
      pairs :=
        Json.(
          Obj
            [ "a", Str names.(i); "b", Str names.(j);
              "mergeable", Bool m.Mergeability.adjacency.(i).(j);
              "reason", option (fun r -> Str r) (List.nth_opt reasons 0);
              "reasons", strings reasons ])
        :: !pairs
    done
  done;
  let clique c = Json.Arr (List.map (fun i -> Json.Int i) c) in
  Json.(
    Obj
      [ "modes", strings (Array.to_list names);
        "cliques", Arr (List.map clique m.Mergeability.cliques); "pairs", Arr !pairs ])

let group_json (g : Merge_flow.group) =
  let equiv (e : Equiv.report) =
    Json.(
      Obj
        [ "equivalent", Bool e.Equiv.equivalent;
          "mismatches", Int e.Equiv.mismatches ])
  in
  let refinement (r : Refine.t) =
    Json.(
      Obj
        [ "iterations", Int r.Refine.iterations;
          "data_clock_fixes", Int (List.length r.Refine.data_clock_fixes);
          "added_false_paths", Int (List.length r.Refine.added_exceptions) ])
  in
  Json.(
    Obj
      [ "name", Str g.Merge_flow.grp_mode.Mm_sdc.Mode.mode_name;
        "members", strings g.Merge_flow.grp_members;
        "singleton", Bool (g.Merge_flow.grp_refine = None);
        "equivalence", option equiv g.Merge_flow.grp_equiv;
        "refinement", option refinement g.Merge_flow.grp_refine;
        "lineage", Prov.json g.Merge_flow.grp_prov ])

let quarantined_json (q : Merge_flow.quarantined) =
  Json.(
    Obj
      [ "name", Str q.Merge_flow.q_name;
        "stage", Str (Merge_flow.stage_to_string q.Merge_flow.q_stage);
        "diags", Arr (List.map Diag.json q.Merge_flow.q_diags) ])

(* Only outcome-affecting governance decisions are reported here —
   transparent recoveries (retries, absorbed timeouts) live in the
   metrics export, so a run that recovered cleanly audits
   byte-identical to one that never faulted. *)
let governance_json (g : Merge_flow.governed) =
  let event (e : Merge_flow.govern_event) =
    Json.string_map
      [ "stage", e.Merge_flow.ge_stage; "scope", e.Merge_flow.ge_scope;
        "action", e.Merge_flow.ge_action; "detail", e.Merge_flow.ge_detail ]
  in
  Json.(
    Obj
      [ "clique_splits", Int g.Merge_flow.gov_clique_splits;
        "budget_quarantines", Int g.Merge_flow.gov_budget_quarantines;
        "conservative_pairs", Int g.Merge_flow.gov_conservative_pairs;
        "deadline_hit", Bool g.Merge_flow.gov_deadline_hit;
        "events", Arr (List.map event g.Merge_flow.gov_events) ])

let to_json (r : Merge_flow.result) =
  let coverage name = name, Json.Int (Metrics.get_counter name) in
  Json.(
    to_string
      (Obj
         [ "audit_schema_version", Int schema_version; "summary", summary_json r;
           "mergeability", mergeability_json r.Merge_flow.mergeability;
           "groups", Arr (List.map group_json r.Merge_flow.groups);
           "quarantined", Arr (List.map quarantined_json r.Merge_flow.quarantined);
           "degraded", Arr (List.map strings r.Merge_flow.degraded);
           "governance", governance_json r.Merge_flow.governed;
           "coverage", Obj (List.map coverage coverage_counters) ]))

let write path r =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (to_json r);
      output_char oc '\n')

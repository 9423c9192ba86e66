(** Merge-job specifications and lifecycle states.

    A job is one merge request: a design, an ordered list of SDC
    sources and the result-shaping options, submitted as JSON over
    [POST /jobs]. This module owns the wire format (parsing a
    submission, rendering status) and the state vocabulary; the
    {!Scheduler} owns execution. *)

type options = {
  opt_policy : Mm_core.Merge_flow.policy;
  opt_check_equivalence : bool;
  opt_tolerance : Mm_util.Toler.t option;
  opt_annotate : bool;
}

val default_options : options
(** [Strict], equivalence checking on, default tolerance, no
    provenance annotations — the CLI [merge] defaults. *)

type spec = {
  sp_design_format : string;  (** ["nl"] or ["v"] *)
  sp_design_text : string;
  sp_sources : (string * string) list;  (** (mode name, SDC text), in order *)
  sp_options : options;
  sp_priority : int;  (** higher runs first; default 0 *)
}

val fingerprint : spec -> string
(** {!Fingerprint.compute} over the spec (priority excluded). *)

val spec_of_json : string -> (spec, string) result
(** Parse a [POST /jobs] body:
    {v
    {"design": {"format": "nl", "text": "..."},
     "sources": [{"name": "func", "text": "..."}, ...],
     "options": {"policy": "strict"|"permissive",
                 "check_equivalence": bool,
                 "tolerance": {"rel": float, "abs": float},
                 "annotate": bool},
     "priority": int}
    v}
    [options] and [priority] are optional ({!default_options}, 0);
    [design.format] defaults to ["nl"]. [Error msg] on malformed
    JSON, a missing field or an unknown format/policy. *)

val spec_to_json : spec -> string
(** The [POST /jobs] body for a spec, every field written: the inverse
    of {!spec_of_json}. *)

(** {2 Lifecycle} *)

type state =
  | Queued
  | Running
  | Done
  | Failed of string     (** crash or malformed design/constraints *)
  | Cancelled of string  (** why *)

val state_to_string : state -> string
(** ["queued" | "running" | "done" | "failed" | "cancelled"]. *)

(** How the result was obtained — the cache-provenance axis the smoke
    tests assert on. *)
type origin =
  | Computed           (** ran the merge pipeline *)
  | Cache_hit          (** served from the result cache, no pipeline *)
  | Coalesced          (** completed by an identical in-flight job *)

val origin_to_string : origin -> string
(** ["computed" | "hit" | "coalesced"]. *)

(** The cacheable outcome of a completed merge. *)
type summary = {
  sm_n_individual : int;
  sm_n_merged : int;
  sm_reduction_percent : float;
  sm_runtime_s : float;
  sm_quarantined : string list;
  sm_degraded : int;  (** cliques degraded to individuals *)
}

type outcome = {
  oc_files : (string * string) list;
      (** {!Mm_core.Merge_flow.merged_files} pairs: byte-identical to
          the one-shot CLI *)
  oc_summary : summary;
}

val outcome_of_result : annotate:bool -> Mm_core.Merge_flow.result -> outcome

val json_of_summary : summary -> Mm_util.Json.t

val summary_json : summary -> string
(** {!json_of_summary} printed: one JSON object (no trailing
    newline). *)

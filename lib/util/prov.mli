(** Provenance lineage store: why does this constraint exist?

    The merge pipeline's trustworthiness argument is that every
    constraint of the merged mode, and every refinement-added false
    path, has a provable origin — a preliminary-merge rule applied to
    identifiable source modes, or a comparison-pass mismatch with
    concrete path evidence. This module is the generic half of that
    record: an ordered store of {!entry} values, one per emitted
    constraint, each carrying a stable id, the canonical SDC text, the
    producing rule, the contributing modes, and structured evidence.
    [Mm_core.Provenance] derives the entries from the pipeline's data;
    the audit report ([--audit]), the [modemerge explain] subcommand
    and the [--annotate] writer all read them from here.

    {b Id scheme.} Entries are numbered in constraint emission order —
    the order of [Mode.to_commands] on the merged mode — and the id is
    ["<scope>#c<N>"] (e.g. ["merged_0#c12"]), where the scope is the
    merged mode's name. Emission order is a function of the merged
    mode's content alone, so ids are byte-identical across [--jobs]
    values and across runs (DESIGN.md §11). *)

(** The rule that produced a constraint. The first six are the
    preliminary-merge rules of paper §3.1; [Clock_refinement] covers
    inferred senses/disables (§3.1.8); [Data_clock_refinement] and
    [Comparison_fix] cover refinement-added exceptions (§3.2). *)
type origin =
  | Union  (** present in some mode, carried into the superset *)
  | Intersection  (** kept only because present in {e every} mode *)
  | Tolerance_merge  (** numerically merged within tolerance *)
  | Uniquification  (** exception narrowed to its origin mode's paths *)
  | Derived_exclusivity  (** clock group derived from mode exclusivity *)
  | Inherited  (** carried over verbatim from source-mode groups *)
  | Clock_refinement  (** sense/disable inferred by clock refinement *)
  | Data_clock_refinement  (** false path on a data-only clock use *)
  | Comparison_fix of { pass : int }
      (** exception added by comparison pass 1, 2 or 3 *)

val origin_to_string : origin -> string
(** Stable lower-case rule names used by the audit schema (e.g.
    ["union"], ["comparison-pass2"]). *)

type entry = {
  pv_id : string;  (** stable id, ["<scope>#c<N>"] *)
  pv_line : string;  (** canonical SDC text of the constraint *)
  pv_origin : origin;
  pv_modes : string list;  (** contributing source modes *)
  pv_evidence : (string * string) list list;
      (** structured evidence records (key/value fields), e.g. one per
          comparison-pass mismatch that produced the constraint *)
  pv_notes : string list;  (** free-form human detail *)
}

(** An entry before id assignment, in emission order. *)
type seed = {
  sd_line : string;
  sd_origin : origin;
  sd_modes : string list;
  sd_evidence : (string * string) list list;
  sd_notes : string list;
}

val seed :
  ?modes:string list ->
  ?evidence:(string * string) list list ->
  ?notes:string list ->
  origin:origin ->
  string ->
  seed

type store

val make : scope:string -> seed list -> store
(** Assign ids ([scope#c0], [scope#c1], …) in list order and build the
    line-lookup index. *)

val scope : store -> string
val entries : store -> entry list
(** In id (= emission) order. *)

val length : store -> int

val find_line : store -> string -> entry list
(** All entries whose canonical text equals the given line (compared
    after trimming surrounding whitespace) — how [modemerge explain]
    resolves a pasted merged-SDC line. Duplicated text yields every
    matching entry, in id order. *)

val find_id : store -> string -> entry option

(** {2 Rendering} *)

val explain_entry : entry -> string
(** Multi-line human-readable lineage chain for one entry. *)

val json : store -> Json.t
(** [{"scope":…,"entries":[…]}] in id order. *)

val to_json : store -> string
(** {!json} printed. *)

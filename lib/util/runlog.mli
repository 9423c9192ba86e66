(** Run history and the statistical performance regression gate.

    The persistence half of the performance flight recorder (DESIGN.md
    §13): each bench or [modemerge perf] run is captured as one
    schema-versioned {!record} — git revision, job count, per-span
    self/total times ({!Obs.span_summaries}), the {!Metrics} counters
    and gauges, and whole-run GC totals ({!Obs.gc_totals}) — and
    appended as one line of [<dir>/<label>.jsonl] under
    [.modemerge/history/].

    On top of the history sits {!check}, a noise-tolerant comparison of
    the current run against the recorded baselines: a span only flags
    as {!Regression} when its self time exceeds the baseline mean by
    the relative threshold {e and} the baseline's own 95% confidence
    interval {e and} an absolute floor — so micro-spans and jittery
    baselines do not cry wolf, while a genuine 2x slowdown cannot hide
    behind its own noise (see {!check_config}). [modemerge perf check]
    turns {!has_regression} into a nonzero exit code; the [@perf-smoke]
    dune alias golden-tests both directions.

    Records are written and read through {!Json}: floats use its exact
    rule (they read back bit-for-bit, non-finite values as [null]),
    and the parser tolerates unknown fields, so the format can grow
    without breaking old readers. *)

val schema_version : string
(** ["modemerge-runlog/1"] — stamped into every record; {!load} skips
    lines carrying any other schema. *)

val default_dir : string
(** [".modemerge/history"], relative to the working directory. *)

(** {2 JSON values}

    Re-exports of {!Json}, kept under their old names for readers
    outside this library. *)

type json = Json.t = Null | Bool of bool | Int of int | Num of float
  | Str of string | Arr of json list | Obj of (string * json) list
  | Rounded of Json.rule * float

exception Parse_error of string

val parse_json : string -> json
val member : string -> json -> json option

(** {2 Records} *)

type span_sum = {
  ss_name : string;
  ss_calls : int;
  ss_total_s : float;
  ss_self_s : float;  (** what the regression gate compares *)
}

type record = {
  r_schema : string;   (** {!schema_version} at capture time *)
  r_label : string;    (** history stream name, e.g. ["perf"] — one JSONL file per label *)
  r_ts : float;        (** Unix epoch seconds at capture *)
  r_git_rev : string;  (** HEAD commit (read from [.git], no subprocess); ["unknown"] outside a checkout *)
  r_jobs : int;
  r_spans : span_sum list;
  r_counters : (string * int) list;
  r_gauges : (string * float) list;  (** gauges except [gc.*] (those live in [r_gc]) *)
  r_gc : (string * float) list;      (** {!Obs.gc_totals} at capture *)
  r_events : (string * int) list;
      (** cumulative per-kind event counts ({!Eventlog.counts}) — how
          eventful the run was (retries, quarantines, splits) next to
          how fast it was *)
}

val capture : label:string -> jobs:int -> unit -> record
(** Snapshot the current {!Obs} span aggregates, {!Metrics} registry,
    GC totals and {!Eventlog} kind counts into a record. Call it at the
    end of an instrumented run, before any [reset]. *)

val to_json : record -> string
(** One-line JSON rendering (the JSONL row format). *)

val of_json_string : string -> record option
(** Inverse of {!to_json}; [None] on malformed JSON or a value with no
    ["schema"] field. Unknown fields are ignored, missing optional
    fields default. *)

val append : ?dir:string -> record -> string
(** Append the record to [<dir>/<label>.jsonl] (creating directories),
    returning the file path. [dir] defaults to {!default_dir}. *)

val load : ?dir:string -> label:string -> unit -> record list
(** All records of the label's history file in append order. Damaged
    lines and records of a different {!schema_version} are skipped —
    history is advisory, never a reason to fail a run. Empty list when
    the file does not exist. *)

val last : int -> 'a list -> 'a list
(** [last n xs] is the trailing [n] elements (all of [xs] when
    shorter) — the baseline window selector. *)

(** {2 Regression gate} *)

type status =
  | Regression   (** self time grew beyond threshold + noise band *)
  | Improvement  (** self time shrank beyond threshold + noise band *)
  | Ok
  | Noisy        (** baseline too unstable to judge (CV over [max_cv]) *)
  | New          (** span absent from every baseline record *)
  | TooSmall     (** both sides under [min_self_s] — never judged *)

type verdict = {
  v_name : string;
  v_status : status;
  v_current_s : float;  (** current run's self time *)
  v_mean_s : float;     (** baseline mean self time (0 for [New]) *)
  v_ci_s : float;       (** baseline {!Stat.ci95_halfwidth} *)
  v_cv : float;         (** baseline coefficient of variation *)
  v_n_base : int;       (** baseline sample count *)
}

type check_config = {
  threshold_pct : float;
      (** relative threshold (percent) a span must move to flag;
          default 10. *)
  min_self_s : float;
      (** absolute floor (seconds): spans under it on both sides are
          [TooSmall], and any flagged delta must also exceed it;
          default 0.01 — sub-10ms jitter never gates. *)
  max_cv : float;
      (** baseline coefficient-of-variation above which a span is
          [Noisy] instead of [Regression] — unless the current time
          exceeds [2 * (mean + ci) + min_self_s], which flags
          regardless (a 2x slowdown must not hide behind a jittery
          baseline); default 1.0. *)
  window : int;
      (** how many trailing history records the CLI uses as baseline;
          default 10. *)
}

val default_config : check_config

val check : ?config:check_config -> baselines:record list -> record -> verdict list
(** One verdict per span of the current record, in record order. A
    span flags [Regression] when
    [current > mean * (1 + threshold_pct/100) + band] {e and}
    [current - mean > min_self_s] (symmetrically for [Improvement]),
    where [band = max ci95 (baseline_max - mean)] — the CI alone
    underestimates short windows, and a value no worse than a
    previously recorded baseline should never flag. Subject to the
    [max_cv] noise rule above. *)

val has_regression : verdict list -> bool
(** The gate: [true] iff some verdict is [Regression]. *)

val status_label : status -> string

val check_report : verdict list -> string
(** Table rendering of {!check} verdicts (one line per span: current,
    baseline mean, CI, sample count, status with percent delta). *)

val diff_report : record -> record -> string
(** [diff_report older newer]: per-span self-time deltas between two
    records plus the allocated-words delta — the [modemerge perf diff]
    output. *)

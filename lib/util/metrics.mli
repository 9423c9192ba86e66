(** Process-wide metrics registry.

    Named counters, gauges and histograms accumulated by the pipeline
    stages and exported as flat JSON — the numeric half of the
    observability layer ({!Obs} holds the tracing half). The registry
    is global and thread-safe (one mutex, coarse-grained: every
    operation is O(1) and instrumentation sites record per-stage or
    per-task values — never per-element in hot inner loops — so
    contention is negligible; histogram memory is bounded by
    {!max_samples} regardless).

    Metric names are stable dotted identifiers and, like {!Diag} error
    codes, part of the tool's observable interface — scripts and the
    bench trajectory ([BENCH_*.json]) key on them, so renaming one is
    a breaking change. The registered families:

    - [sdc.*]     front-end work (e.g. [sdc.commands_recovered])
    - [prelim.*]  preliminary merging (e.g. [prelim.exceptions_uniquified])
    - [refine.*]  refinement (e.g. [refine.false_paths_added])
    - [compare.*] the 3-pass comparison (e.g. [compare.fixes])
    - [merge.*]   the merge flow (e.g. [merge.cliques],
                  [merge.quarantined], [merge.degraded_cliques])
    - [sta.*]     the STA engine (e.g. [sta.tags_propagated],
                  [sta.endpoints_checked])

    Unlike {!Obs} spans, the registry is always on: recording is a few
    hashtable operations per pipeline stage and costs nothing
    measurable, and robustness counters ([merge.quarantined]) must be
    visible even in runs that never enable tracing. *)

type histogram = {
  h_count : int;   (** number of observations (exact, uncapped) *)
  h_sum : float;   (** exact sum of every observation *)
  h_min : float;
  h_max : float;
  h_samples : float list;
      (** the retained sample reservoir, in unspecified order. Up to
          {!max_samples} observations every sample is retained and the
          exported percentiles are exact; beyond the cap the reservoir
          is a uniform random subset (Algorithm R, deterministic PRNG
          seeded from the metric name) and percentiles become unbiased
          estimates. The cap bounds memory, so even a misplaced
          per-element [observe] in a hot loop cannot grow the registry
          unboundedly. *)
}

val max_samples : int
(** Reservoir capacity per histogram (1024). [h_count]/[h_sum]/
    [h_min]/[h_max] stay exact past the cap; only the percentile
    sample set is capped. *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of histogram

type item = { name : string; value : value }

val incr : ?by:int -> string -> unit
(** Add [by] (default 1) to counter [name], creating it at 0. *)

val set : string -> float -> unit
(** Set gauge [name] (last write wins). *)

val observe : string -> float -> unit
(** Record one observation into histogram [name]. *)

val get_counter : string -> int
(** Current counter value; 0 when absent (or not a counter). *)

val get : string -> value option

val snapshot : unit -> item list
(** All metrics, sorted by name. *)

val reset : unit -> unit
(** Drop every metric (tests and fresh bench runs). *)

val counters : unit -> (string * int) list
(** Counters only, sorted by name — the slice of the registry the
    checkpoint/resume machinery persists at stage boundaries (gauges
    and histograms carry timings, which are run-local by design). *)

val restore_counters : (string * int) list -> unit
(** Set each named counter to the given absolute value (creating it if
    absent). Used by [--resume] to re-establish the counter state of a
    completed stage so audit coverage sections stay byte-identical to
    an uninterrupted run. *)

(** {2 JSON rendering}

    The registry renders as one flat object keyed by metric name:
    counters as integers, gauges as numbers ({!Json.display}; a
    non-finite value as [null]), histograms as
    [{"count":n,"sum":s,"min":a,"max":b,"mean":m,"p50":…,"p90":…,"p99":…}]
    where the percentiles are nearest-rank values over the retained
    reservoir — exact below {!max_samples} observations, a documented
    estimate above it. *)

val to_json : unit -> string

val json_of_items : item list -> Json.t
(** The same object for any slice of the registry (the bench embeds
    the [pool.*] slice). *)

(** {2 Prometheus rendering}

    The [GET /metrics] exposition (Prometheus text format v0.0.4).
    Dotted metric names are sanitised to the Prometheus charset
    ([merge.cliques] → [merge_cliques]); counters and gauges render
    with a [# TYPE] line; histograms render cumulative
    [name_bucket{le=…}] lines derived from the retained reservoir —
    per-bound reservoir counts scaled to the exact observation count
    and floored, which keeps the series monotone by construction and
    exact below {!max_samples} observations — plus exact [name_sum] /
    [name_count] lines and a [+Inf] bucket pinned to the exact count. *)

val to_prometheus : unit -> string

val prometheus_of_items : item list -> string

val percentile : histogram -> float -> float
(** [percentile h q] is the nearest-rank [q]-quantile ([q] in [0,1],
    {!Stat.percentile}) of the histogram's retained samples; [0.] for
    an empty histogram. *)

val json_escape : string -> string
(** {!Json.escape}, kept under its old name for the benchmark
    harness. *)

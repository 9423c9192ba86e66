(** Content-addressed result cache: fingerprint -> completed merge
    outcome.

    Two layers behind one mutex-protected interface (handlers call in
    from the HTTP domain, the scheduler from its dispatcher domain):

    - a bounded in-memory LRU ([entries] outcomes; least-recently-used
      evicted, [cache.evictions]);
    - an optional on-disk store ([dir]): one file per fingerprint,
      written with the {!Mm_core.Checkpoint} discipline — temp file +
      atomic [Sys.rename], an embedded payload digest verified on
      read. A torn, corrupt or schema-mismatched file is treated as
      absent (and deleted), never served.

    A disk hit is promoted into the memory LRU. Lookups and stores
    maintain the [cache.hits] / [cache.misses] / [cache.stores] /
    [cache.evictions] counters and journal [cache.*] events, which is
    what lets the smoke suite assert "second submission hit the cache
    and skipped the pipeline" from outside. *)

type t

val create : ?dir:string -> ?entries:int -> unit -> t
(** [entries] caps the memory layer (default 64, min 1). [dir] enables
    the disk layer (created if missing). *)

val find : t -> string -> Job.outcome option
(** Lookup by fingerprint. Counts a hit (attr [tier] = [memory] or
    [disk]) or a miss. *)

val store : t -> string -> Job.outcome -> unit
(** Insert, evicting the LRU entry if the memory layer is full, and
    persist to disk when enabled. Idempotent per fingerprint. *)

val json_of_stats : t -> Mm_util.Json.t
(** The [/cache/stats] body: entry count, capacity, disk state and the
    cumulative hit/miss/store/eviction counters (one JSON object). *)

val stats_json : t -> string
(** {!json_of_stats} printed. *)

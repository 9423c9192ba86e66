(** The merge service daemon: HTTP glue between {!Mm_util.Serve}'s
    telemetry plane and the {!Scheduler}/{!Rcache} pair.

    {!start} brings up one {!Mm_util.Serve} server with the job plane
    mounted as registered routes, so every telemetry endpoint
    ([/metrics], [/healthz], [/events], …) is served from the same
    port as the job API:

    - [POST /jobs] — submit a merge job ({!Job.spec_of_json} body).
      202 + status JSON when queued or coalesced, 200 when completed
      on the spot from the result cache, 400 on a malformed spec,
      413 when the body exceeds the configured limit, 429 with
      [Retry-After] when the queue is full;
    - [GET /jobs] — every job, newest last (JSON array);
    - [GET /jobs/ID] — one job's status JSON: state, cache origin
      ([computed]/[hit]/[coalesced]), priority, fingerprint, wall
      time, and the result summary + file manifest once done;
    - [GET /jobs/ID/result] — the result manifest (files with sizes,
      summary, origin). 409 while the job is not [done];
    - [GET /jobs/ID/result/FILE] — one merged SDC, raw bytes —
      byte-identical to the one-shot CLI's file of the same name;
    - [DELETE /jobs/ID] — cancel (prompt for queued jobs, cooperative
      for the running one). 409 when already completed;
    - [GET /queue] — queue counts, capacity and per-job one-liners;
    - [GET /cache/stats] — {!Rcache.json_of_stats}.

    Everything is JSON except the raw result files. Unknown ids are
    404. *)

type config = {
  dc_addr : string;
  dc_port : int;  (** 0 asks the OS; read the bound port from {!port} *)
  dc_jobs : int option;  (** per-merge pool size *)
  dc_queue_cap : int;
  dc_cache_entries : int;
  dc_cache_dir : string option;  (** enables the on-disk result store *)
  dc_max_body_bytes : int;  (** [POST /jobs] body cap *)
}

val default_config : config
(** 127.0.0.1:0, default pool size, queue cap 16, 64 cache entries,
    memory-only cache, 8 MiB body cap. *)

type t

val start : config -> t
(** Mount the job routes, start serving and return. The daemon runs on
    its own domains (HTTP + dispatcher); the calling domain is free.
    @raise Failure when the address cannot be bound. *)

val addr : t -> string
val port : t -> int
val scheduler : t -> Scheduler.t
val cache : t -> Rcache.t

val stop : t -> unit
(** Unmount the routes, cancel outstanding jobs, stop the scheduler
    and the HTTP server. Idempotent. *)

(** The serving-control-plane experiment ([svc]): the online route-plan
    server ({!Kar_service}) under open-loop load.

    Three studies, all on virtual time (byte-identical at any pool width):

    - {b steady state}: throughput and latency percentiles of a Zipf
      workload against the default cache/batcher configuration;
    - {b skew sweep}: cache hit ratio and tail latency as a function of the
      Zipf exponent — the knob that decides whether a bounded cache pays;
    - {b replan storm}: a link failure mid-run bumps the topology epoch,
      invalidating the cache; the timeline shows the hit-ratio collapse,
      the batched replan storm, and the recovery as the cache refills. *)

(** [testbed ()] is the serving testbed: a KAR-labelled Waxman core with an
    edge host attached to every switch (so the (src, dst) universe is large
    enough for cache pressure), deterministic in its defaults. *)
val testbed : ?n_core:int -> ?seed:int -> unit -> Topo.Graph.t

(** The workload used by the steady-state study and by the bench gauges;
    exposed so the bench harness times serving without timing generation. *)
val bench_workload :
  requests:int -> Topo.Graph.t * Kar_service.Workload.request array

(** [bench_serve ?pool g reqs] serves the workload on a fresh server
    (private [pool] if given) and returns the report. *)
val bench_serve :
  ?pool:Util.Pool.t ->
  Topo.Graph.t ->
  Kar_service.Workload.request array ->
  Kar_service.Server.report

(** The failure-at-t timeline data, exposed for the invariant test: the
    report plus the bucketed hit ratios (bucket width, per-bucket ratio)
    and the failure/repair times used. *)
type storm = {
  report : Kar_service.Server.report;
  bucket_s : float;
  hit_ratio_per_bucket : float array;
  fail_at : float;
  repair_at : float;
  metrics_summary : string;
      (** end-of-run {!Kar_obs.Export.summary} of the server registry *)
  span_summary : string; (** {!Kar_obs.Span.summary} of the control plane *)
}

(** The link the storm study fails: a core-core link on the most popular
    pair's primary path (fallback: the first core-core link).  Exposed for
    the [kar_service] CLI's default on generated topologies. *)
val storm_link : Topo.Graph.t -> Topo.Graph.link_id

val storm : ?profile:Profile.t -> unit -> storm

(** The canonical seeded 1k-request event stream (JSONL, one event per
    line) behind the committed [test/fixtures/service_1k.jsonl]: a 16-core
    testbed with a failure at half-horizon and a repair at three quarters.
    Byte-identical at any pool width. *)
val canonical_trace : unit -> string

(** The canonical metrics time series (one {!Kar_obs.Export.snapshot_line}
    per horizon/16) behind the committed
    [test/fixtures/service_metrics_1k.jsonl]: the same 16-core testbed and
    seed with one failure at half-horizon — the replan storm as data.
    Byte-identical at any pool width. *)
val canonical_metrics : unit -> string

(** [plan_digests ()] is the JSONL behind the committed
    [test/fixtures/plan_digests.jsonl]: per testbed, level and failed-link
    set, one line with the pair count, how many pairs raised, and the MD5
    of every {!Kar.Controller.protected_route} plan field (or error
    message) in pair order.  The 32-switch testbed plans all 992 ordered
    edge pairs, with no failed link and with links 3 and 17 failed (the
    primary path avoids them); the 128-switch testbed plans a fixed
    sample of 50 pairs with no failed link. *)
val plan_digests : unit -> string

(** [metrics_to_string ()] renders the storm run's end-of-run registry and
    span summaries (the [--metrics] view of the [svc] experiment). *)
val metrics_to_string : ?profile:Profile.t -> unit -> string

(** [to_string ?metrics ()] — [metrics] (default false) appends the
    registry-snapshot section. *)
val to_string : ?profile:Profile.t -> ?metrics:bool -> unit -> string

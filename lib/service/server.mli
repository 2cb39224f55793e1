(** The online route-plan server: cache in front, single-flight batcher
    behind, driven by the discrete-event clock.

    A request asks for a route plan keyed by [(src, dst, level, policy)],
    packed into one int for the cache and the batcher.  The server
    answers from the epoch-checked LRU {!Cache} when it can (5 us
    later); otherwise the key goes to the {!Batcher}, which
    plans batches of distinct keys on the domain pool and completes them on
    the modelled planner timeline.  Completed plans are inserted into the
    cache {e unless} the topology epoch moved while they were in flight —
    stale plans are still served to their waiters (they were correct when
    requested) but never cached, so one failure produces exactly one replan
    storm and the hit ratio recovers as the cache refills against the new
    epoch.

    Plans are computed with {!Kar.Controller.protected_route}, its primary
    path restricted to the links not currently failed, so post-failure
    plans route around known failures; the adversarial scenario and the
    verifier plan with the same function.

    Every virtual timestamp in the run (arrivals, dispatches, completions)
    is independent of the real pool width, so reports and event streams are
    byte-identical at any [-j]. *)

module Graph = Topo.Graph

type config = {
  cache_capacity : int;
  batch_size : int; (** dispatch threshold, distinct keys *)
  batch_delay : float; (** max virtual seconds a batch stays open *)
  workers : int; (** modelled planner threads (fixed; not the pool width) *)
}

(** 256 entries, batches of 16 or 200 us, 4 modelled workers.  The
    modelled costs are fixed: a cache hit answers 5 us later, firing a
    batch costs 20 us, and a plan costs 200 us + 20 us per residue. *)
val default_config : config

type t

(** [create ?config ?pool ?registry ~graph ()] — [pool] routes batch
    computation to a private domain pool instead of the shared one (bench
    isolation); [registry] is the metrics registry the server's cache,
    batcher and latency histogram register on (a fresh private registry
    when omitted). *)
val create :
  ?config:config ->
  ?pool:Util.Pool.t ->
  ?registry:Kar_obs.Registry.t ->
  graph:Graph.t ->
  unit ->
  t

(** The server's metrics registry: [svc/*] cache, batcher, latency
    ([svc/latency-ns] histogram) and depth metrics, plus [engine/*] probes
    once {!run} has started. *)
val registry : t -> Kar_obs.Registry.t

(** Control-plane spans: one [Batch_dispatch] per batch, one
    [Plan_compile] per planned key, one [Epoch_invalidate] per topology
    event, one [Snapshot] per emitted metrics snapshot. *)
val spans : t -> Kar_obs.Span.t

(** Mark a link failed / repaired and bump the cache epoch.  Used directly
    for set-up; during a run prefer the [failures] schedule.
    @raise Invalid_argument, naming the id and the graph's link count, when
    the link id is outside [\[0, Graph.n_links)]. *)
val fail_link : t -> Graph.link_id -> unit

val repair_link : t -> Graph.link_id -> unit

(** What one request experienced; [report.records] holds them in sequence
    order for timeline bucketing. *)
type record = {
  arrival : float;
  completion : float;
  outcome : Event.outcome; (** how the cache lookup resolved *)
  ok : bool; (** false: unroutable under the topology it was planned on *)
}

(** Latency percentiles come from the streaming [svc/latency-ns]
    histogram (8 sub-buckets per octave), so they are bucket upper bounds:
    within one bucket width (<= 12.5% relative) above the exact
    nearest-rank value, at O(1) memory for any workload size. *)
type report = {
  requests : int;
  unroutable : int;
  makespan : float; (** virtual time of the last completion *)
  virtual_rps : float; (** requests / makespan *)
  mean_latency : float; (** seconds; 0 when no requests *)
  p50 : float;
  p95 : float;
  p99 : float;
  cache_hits : int;
  cache_misses : int;
  cache_stale : int;
  cache_evictions : int;
  cache_size : int;
  epoch : int;
  hit_ratio : float;
  stale_rate : float;
      (** stale lookups / all lookups — how often the cache answered with
          an entry from a dead epoch and had to replan *)
  batches : int;
  planned : int; (** plans actually computed *)
  coalesced : int; (** requests that shared another request's plan *)
  max_batch : int;
  stale_completions : int; (** plans that outlived their epoch in flight *)
  max_depth : int; (** max distinct keys queued + in flight *)
  max_waiting : int; (** max requests pending a plan *)
  records : record array; (** empty unless [keep_records] *)
}

(** [run t ?sink ?failures ?keep_records ?metrics_every ?metrics_sink
    requests] serves the whole workload to completion and reports.
    [sink] receives the {!Event} stream; the events, with their labels
    and strings, are built only when a [sink] is given, so a run without
    one allocates nothing on a cache hit beyond the engine's own clock.
    [failures] is a schedule of topology events
    [(time, `Fail l | `Repair l)]; each bumps the epoch and is announced
    on [sink].  [keep_records] (default false) materialises the
    per-request {!record} array — off, memory stays bounded at
    10^6-request workloads.  [metrics_sink] receives one
    {!Kar_obs.Export.snapshot_line} per [metrics_every] virtual seconds
    (default: arrival horizon / 64) — a sim-clock time series that is
    byte-identical at any pool width.  Single-shot: a server instance
    runs one workload.
    @raise Invalid_argument before any request is served when a
    [failures] entry names a link id outside [\[0, Graph.n_links)] (the
    message names the id and the link count). *)
val run :
  t ->
  ?sink:(Event.t -> unit) ->
  ?failures:(float * [ `Fail of Graph.link_id | `Repair of Graph.link_id ]) list ->
  ?keep_records:bool ->
  ?metrics_every:float ->
  ?metrics_sink:(string -> unit) ->
  Workload.request array ->
  report

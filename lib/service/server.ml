module Graph = Topo.Graph
module Engine = Netsim.Engine
module Registry = Kar_obs.Registry
module Span = Kar_obs.Span
module Export = Kar_obs.Export

type key = {
  src : Graph.node;
  dst : Graph.node;
  level : Kar.Controller.level;
  policy : Kar.Policy.t;
}

type config = {
  cache_capacity : int;
  batch_size : int;
  batch_delay : float;
  workers : int;
}

let default_config =
  {
    cache_capacity = 256;
    batch_size = 16;
    batch_delay = 2e-4;
    workers = 4;
  }

(* The modelled virtual costs: firing a batch, answering a cache hit, and
   one plan computation (a base plus a per-residue share). *)
let dispatch_overhead = 2e-5
let hit_latency = 5e-6
let plan_base_cost = 2e-4
let plan_residue_cost = 2e-5

(* What the batcher computes per key: the plan (None = unroutable) and the
   epoch its topology view belonged to. *)
type computed = { plan : Kar.Route.plan option; born : int }

type t = {
  config : config;
  graph : Graph.t;
  pool : Util.Pool.t option;
  registry : Registry.t;
  spans : Span.t;
  cache : (key, Kar.Route.plan option) Cache.t;
  latency_h : Registry.histogram;
  unroutable_c : Registry.counter;
  stale_completion_c : Registry.counter;
  max_depth_g : Registry.gauge;
  max_waiting_g : Registry.gauge;
  topo_fail_c : Registry.counter;
  topo_repair_c : Registry.counter;
  failed : bool array; (* by link id *)
  mutable ran : bool;
}

let create ?(config = default_config) ?pool ?registry ~graph () =
  let registry =
    match registry with Some r -> r | None -> Registry.create ()
  in
  let cache = Cache.create ~registry ~capacity:config.cache_capacity () in
  (* basis-point hit ratio as a probe: snapshots carry the derived series
     without any per-event work *)
  Registry.probe registry "svc/hit-ratio-bp" (fun () ->
      let total = Cache.hits cache + Cache.misses cache + Cache.stale cache in
      if total = 0 then 0 else Cache.hits cache * 10_000 / total);
  (* stale-serve pressure as the same basis-point construction: lookups
     that found an entry from a dead epoch, over all lookups *)
  Registry.probe registry "svc/stale-rate-bp" (fun () ->
      let total = Cache.hits cache + Cache.misses cache + Cache.stale cache in
      if total = 0 then 0 else Cache.stale cache * 10_000 / total);
  (* explicit registration order: it is the snapshot column order *)
  let latency_h = Registry.histogram registry "svc/latency-ns" in
  let unroutable_c = Registry.counter registry "svc/unroutable" in
  let stale_completion_c = Registry.counter registry "svc/stale-completion" in
  let max_depth_g = Registry.gauge registry "svc/max-depth" in
  let max_waiting_g = Registry.gauge registry "svc/max-waiting" in
  let topo_fail_c = Registry.counter registry "svc/topo-fail-events" in
  let topo_repair_c = Registry.counter registry "svc/topo-repair-events" in
  {
    config;
    graph;
    pool;
    registry;
    spans = Span.create ();
    cache;
    latency_h;
    unroutable_c;
    stale_completion_c;
    max_depth_g;
    max_waiting_g;
    topo_fail_c;
    topo_repair_c;
    failed = Array.make (Graph.n_links graph) false;
    ran = false;
  }

let registry t = t.registry
let spans t = t.spans

let check_link fn t l =
  let n = Array.length t.failed in
  if l < 0 || l >= n then
    invalid_arg
      (Printf.sprintf "Server.%s: link %d is not in the graph (it has %d links)" fn l n)

let fail_link t l =
  check_link "fail_link" t l;
  Registry.incr t.topo_fail_c;
  t.failed.(l) <- true;
  Cache.bump_epoch t.cache

let repair_link t l =
  check_link "repair_link" t l;
  Registry.incr t.topo_repair_c;
  t.failed.(l) <- false;
  Cache.bump_epoch t.cache

(* Plan for a key on the current topology view: the controller's protected
   route with the primary path over the surviving links. *)
let plan_for t key =
  let usable l = not t.failed.(l.Graph.id) in
  match
    Kar.Controller.protected_route ~usable t.graph ~src:key.src ~dst:key.dst
      ~level:key.level
  with
  | plan -> Some plan
  | exception Invalid_argument _ -> None

let link_cause t action l =
  let link = Graph.link t.graph l in
  Printf.sprintf "%s SW%d-SW%d" action
    (Graph.label t.graph link.Graph.ep0.Graph.node)
    (Graph.label t.graph link.Graph.ep1.Graph.node)

type record = {
  arrival : float;
  completion : float;
  outcome : Event.outcome;
  ok : bool;
}

type report = {
  requests : int;
  unroutable : int;
  makespan : float;
  virtual_rps : float;
  mean_latency : float;
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
  batches : int;
  planned : int;
  coalesced : int;
  max_batch : int;
  stale_completions : int;
  max_depth : int;
  max_waiting : int;
  records : record array;
}

(* histogram percentile (integer ns, bucket upper bound) back to seconds *)
let q_s h p = float_of_int (Registry.h_quantile h p) /. 1e9

let run t ?(sink = fun _ -> ()) ?(failures = []) ?(keep_records = false)
    ?metrics_every ?metrics_sink requests =
  if t.ran then invalid_arg "Server.run: a server instance runs one workload";
  (* the whole schedule is checked before anything runs *)
  List.iter
    (fun (_, (`Fail l | `Repair l)) -> check_link "run" t l)
    failures;
  t.ran <- true;
  let cfg = t.config in
  let g = t.graph in
  let engine = Engine.create () in
  Registry.probe t.registry "engine/events" (fun () -> Engine.processed engine);
  Registry.probe t.registry "engine/pending" (fun () -> Engine.pending engine);
  let n = Array.length requests in
  (* The latency histogram replaces the materialised per-request list: a
     10^6-request run keeps percentiles in a fixed 488-bucket array.
     [records] is only populated on request (timeline bucketing). *)
  let records =
    Array.make
      (if keep_records then n else 0)
      { arrival = 0.0; completion = 0.0; outcome = Event.Miss; ok = false }
  in
  let makespan = ref 0.0 in
  let compute key = { plan = plan_for t key; born = Cache.epoch t.cache } in
  let cost _key result =
    match result with
    | Ok { plan = Some p; _ } ->
      plan_base_cost
      +. (plan_residue_cost *. float_of_int (List.length p.Kar.Route.residues))
    | Ok { plan = None; _ } | Error _ -> plan_base_cost
  in
  let on_dispatch ~batch ~keys =
    sink (Event.Dispatch { t = Engine.now engine; batch; size = Array.length keys })
  in
  let on_key_complete ~batch ~key result =
    let ok, stale, value =
      match result with
      | Ok v -> (v.plan <> None, v.born <> Cache.epoch t.cache, Some v.plan)
      | Error _ -> (false, false, None)
    in
    if stale then Registry.incr t.stale_completion_c
    else
      (* plans that raised unexpectedly are not cached either: transient *)
      Option.iter (fun plan -> Cache.put t.cache key plan) value;
    sink
      (Event.Complete
         {
           t = Engine.now engine;
           batch;
           src = Graph.label g key.src;
           dst = Graph.label g key.dst;
           ok;
           stale;
         })
  in
  let batcher =
    Batcher.create ~engine ~batch_size:cfg.batch_size ~max_delay:cfg.batch_delay
      ~workers:cfg.workers ~dispatch_overhead ?pool:t.pool
      ~registry:t.registry ~spans:t.spans ~on_dispatch ~on_key_complete ~compute
      ~cost ()
  in
  let sample_gauges () =
    Registry.set_max t.max_depth_g (Batcher.queued batcher + Batcher.in_flight batcher);
    Registry.set_max t.max_waiting_g (Batcher.waiting batcher)
  in
  let finish seq ~arrival ~outcome ~ok =
    let completion = Engine.now engine in
    Registry.observe_s t.latency_h (completion -. arrival);
    if not ok then Registry.incr t.unroutable_c;
    if completion > !makespan then makespan := completion;
    if keep_records then records.(seq) <- { arrival; completion; outcome; ok }
  in
  let process (r : Workload.request) =
    let key = { src = r.src; dst = r.dst; level = r.level; policy = r.policy } in
    let lookup = Cache.lookup t.cache key in
    let outcome =
      match lookup with
      | Cache.Hit _ -> Event.Hit
      | Cache.Miss -> Event.Miss
      | Cache.Stale -> Event.Stale
    in
    sink
      (Event.Request
         {
           seq = r.seq;
           t = r.arrival;
           src = Graph.label g r.src;
           dst = Graph.label g r.dst;
           level = Kar.Controller.level_to_string r.level;
           policy = Kar.Policy.to_string r.policy;
           outcome;
         });
    (match lookup with
     | Cache.Hit plan ->
       let ok = plan <> None in
       ignore
         (Engine.schedule_in engine hit_latency (fun () ->
              finish r.seq ~arrival:r.arrival ~outcome ~ok))
     | Cache.Miss | Cache.Stale ->
       Batcher.request batcher key ~ready:(fun result ->
           let ok = match result with Ok { plan = Some _; _ } -> true | _ -> false in
           finish r.seq ~arrival:r.arrival ~outcome ~ok));
    sample_gauges ()
  in
  (* topology events first so same-timestamp ties resolve failure-first *)
  List.iter
    (fun (at, action) ->
      ignore
        (Engine.schedule_at engine at (fun () ->
             (match action with
              | `Fail l -> fail_link t l
              | `Repair l -> repair_link t l);
             let now = Engine.now engine in
             Span.record t.spans Span.Epoch_invalidate ~t0:now ~t1:now
               ~detail:(Cache.epoch t.cache);
             sink
               (Event.Epoch
                  {
                    t = now;
                    epoch = Cache.epoch t.cache;
                    cause =
                      (match action with
                       | `Fail l -> link_cause t "fail" l
                       | `Repair l -> link_cause t "repair" l);
                  }))))
    failures;
  (* periodic sim-clock snapshots: a self-chaining event that emits one
     JSONL line per interval and stops once the rest of the run has
     drained (its own event does not count, having just been popped).
     Purely virtual-clock scheduling, so the series is byte-identical at
     any pool width. *)
  (match metrics_sink with
   | None -> ()
   | Some emit ->
     let every =
       match metrics_every with
       | Some e when e > 0.0 -> e
       | _ ->
         (* default: ~64 samples over the arrival horizon *)
         if n = 0 then 1.0
         else Stdlib.max 1e-6 (requests.(n - 1).Workload.arrival /. 64.0)
     in
     let rec snap () =
       let now = Engine.now engine in
       emit (Export.snapshot_line ~t:now t.registry);
       Span.record t.spans Span.Snapshot ~t0:now ~t1:now ~detail:0;
       if Engine.pending engine > 0 then
         ignore (Engine.schedule_in engine every snap)
     in
     ignore (Engine.schedule_at engine every snap));
  (* arrivals chain one ahead instead of loading the heap with the whole
     open-loop schedule up front *)
  let rec arrive i () =
    process requests.(i);
    if i + 1 < n then
      ignore (Engine.schedule_at engine requests.(i + 1).Workload.arrival (arrive (i + 1)))
  in
  if n > 0 then ignore (Engine.schedule_at engine requests.(0).Workload.arrival (arrive 0));
  Engine.run engine;
  let makespan = !makespan in
  let h = t.latency_h in
  {
    requests = n;
    unroutable = Registry.value t.unroutable_c;
    makespan;
    virtual_rps = (if makespan > 0.0 then float_of_int n /. makespan else 0.0);
    mean_latency =
      (if n = 0 then 0.0
       else float_of_int (Registry.h_sum h) /. 1e9 /. float_of_int n);
    p50 = (if n = 0 then 0.0 else q_s h 50.0);
    p95 = (if n = 0 then 0.0 else q_s h 95.0);
    p99 = (if n = 0 then 0.0 else q_s h 99.0);
    cache_hits = Cache.hits t.cache;
    cache_misses = Cache.misses t.cache;
    cache_stale = Cache.stale t.cache;
    cache_evictions = Cache.evictions t.cache;
    cache_size = Cache.size t.cache;
    epoch = Cache.epoch t.cache;
    hit_ratio = Cache.hit_ratio t.cache;
    stale_rate =
      (let total = Cache.hits t.cache + Cache.misses t.cache + Cache.stale t.cache in
       if total = 0 then 0.0 else float_of_int (Cache.stale t.cache) /. float_of_int total);
    batches = Batcher.batches batcher;
    planned = Batcher.computed batcher;
    coalesced = Batcher.coalesced batcher;
    max_batch = Batcher.max_batch batcher;
    stale_completions = Registry.value t.stale_completion_c;
    max_depth = Registry.gauge_value t.max_depth_g;
    max_waiting = Registry.gauge_value t.max_waiting_g;
    records;
  }

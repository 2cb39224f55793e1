module Graph = Topo.Graph
module Engine = Netsim.Engine
module Registry = Kar_obs.Registry
module Span = Kar_obs.Span
module Export = Kar_obs.Export

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
  cache : Kar.Route.plan option Cache.t;
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

(* The unit of caching and of single-flight deduplication: a request's
   (src, dst, level, policy) packed into one int,
   ((src * n_nodes + dst) * 3 + level) * 4 + policy, so the cache and the
   batcher hash and compare an immediate.  [unpack_key] is its inverse. *)
let pack_key ~n_nodes ~src ~dst ~(level : Kar.Controller.level)
    ~(policy : Kar.Policy.t) =
  let level = match level with Unprotected -> 0 | Partial -> 1 | Full -> 2 in
  let policy =
    match policy with
    | No_deflection -> 0
    | Hot_potato -> 1
    | Any_valid_port -> 2
    | Not_input_port -> 3
  in
  ((((src * n_nodes) + dst) * 3) + level) * 4 + policy

let unpack_key ~n_nodes key =
  let level : Kar.Controller.level =
    match key / 4 mod 3 with 0 -> Unprotected | 1 -> Partial | _ -> Full
  in
  let policy : Kar.Policy.t =
    match key mod 4 with
    | 0 -> No_deflection
    | 1 -> Hot_potato
    | 2 -> Any_valid_port
    | _ -> Not_input_port
  in
  (key / 12 / n_nodes, key / 12 mod n_nodes, level, policy)

(* Plan for a key on the current topology view: the controller's protected
   route with the primary path over the surviving links. *)
let plan_for t key =
  let src, dst, level, _ = unpack_key ~n_nodes:(Graph.n_nodes t.graph) key in
  let usable l = not t.failed.(l.Graph.id) in
  match Kar.Controller.protected_route ~usable t.graph ~src ~dst ~level with
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

(* Hit completions in waiting: an int FIFO over a power-of-two ring that
   doubles when full. *)
type fifo = { mutable buf : int array; mutable first : int; mutable len : int }

let fifo_push q x =
  let cap = Array.length q.buf in
  if q.len = cap then begin
    let buf = Array.make (2 * cap) 0 in
    for k = 0 to q.len - 1 do
      buf.(k) <- q.buf.((q.first + k) land (cap - 1))
    done;
    q.buf <- buf;
    q.first <- 0
  end;
  q.buf.((q.first + q.len) land (Array.length q.buf - 1)) <- x;
  q.len <- q.len + 1

let fifo_pop q =
  let x = q.buf.(q.first) in
  q.first <- (q.first + 1) land (Array.length q.buf - 1);
  q.len <- q.len - 1;
  x

let run t ?sink ?(failures = []) ?(keep_records = false) ?metrics_every
    ?metrics_sink requests =
  if t.ran then invalid_arg "Server.run: a server instance runs one workload";
  (* the whole schedule is checked before anything runs *)
  List.iter
    (fun (_, (`Fail l | `Repair l)) -> check_link "run" t l)
    failures;
  t.ran <- true;
  let cfg = t.config in
  let g = t.graph in
  let n_nodes = Graph.n_nodes g in
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
  (* a float array cell, so raising it stores a float without a box *)
  let makespan = [| 0.0 |] in
  let compute key = { plan = plan_for t key; born = Cache.epoch t.cache } in
  let cost _key result =
    match result with
    | Ok { plan = Some p; _ } ->
      plan_base_cost
      +. (plan_residue_cost *. float_of_int (List.length p.Kar.Route.residues))
    | Ok { plan = None; _ } | Error _ -> plan_base_cost
  in
  (* Events are built only for a listener: without one, neither the
     records nor their labels and strings are made. *)
  let on_dispatch ~batch ~keys =
    match sink with
    | None -> ()
    | Some emit ->
      emit (Event.Dispatch { t = Engine.now engine; batch; size = Array.length keys })
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
    match sink with
    | None -> ()
    | Some emit ->
      let src, dst, _, _ = unpack_key ~n_nodes key in
      emit
        (Event.Complete
           {
             t = Engine.now engine;
             batch;
             src = Graph.label g src;
             dst = Graph.label g dst;
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
  (* Only a miss can raise either maximum: [Batcher.request] is where keys
     join the queue and requests start waiting, a dispatch moves keys from
     queued to in flight without changing the sum, and completions shrink
     both.  So the gauges are sampled after misses alone. *)
  let sample_gauges () =
    Registry.set_max t.max_depth_g (Batcher.queued batcher + Batcher.in_flight batcher);
    Registry.set_max t.max_waiting_g (Batcher.waiting batcher)
  in
  let finish i ~outcome ~ok =
    let r = requests.(i) in
    let completion = Engine.now engine in
    Registry.observe t.latency_h
      (int_of_float ((completion -. r.Workload.arrival) *. 1e9));
    if not ok then Registry.incr t.unroutable_c;
    if completion > makespan.(0) then makespan.(0) <- completion;
    if keep_records then
      records.(r.seq) <- { arrival = r.arrival; completion; outcome; ok }
  in
  (* Hit completions fire in arrival order.  Arrivals are non-decreasing
     (the arrival chain's [schedule_at] refuses a past time), every hit
     answers [hit_latency] after its arrival, and equal completion times
     tie on [sched], [sched2] and then [seq], each of which grows from one
     hit to the next.  So each hit queues its request index and [ok] bit
     as [2i + ok], and one closure made here pops the head per
     completion: still one engine event per hit, at the same key. *)
  let hits = { buf = Array.make 64 0; first = 0; len = 0 } in
  let complete_hit () =
    let c = fifo_pop hits in
    finish (c lsr 1) ~outcome:Event.Hit ~ok:(c land 1 = 1)
  in
  let process i =
    let r = requests.(i) in
    let key =
      pack_key ~n_nodes ~src:r.Workload.src ~dst:r.dst ~level:r.level
        ~policy:r.policy
    in
    let slot = Cache.lookup t.cache key in
    let outcome =
      if slot >= 0 then Event.Hit
      else if slot = Cache.lookup_stale then Event.Stale
      else Event.Miss
    in
    (match sink with
     | None -> ()
     | Some emit ->
       emit
         (Event.Request
            {
              seq = r.seq;
              t = r.arrival;
              src = Graph.label g r.src;
              dst = Graph.label g r.dst;
              level = Kar.Controller.level_to_string r.level;
              policy = Kar.Policy.to_string r.policy;
              outcome;
            }));
    if slot >= 0 then begin
      let ok = match Cache.value t.cache slot with Some _ -> 1 | None -> 0 in
      fifo_push hits ((i lsl 1) lor ok);
      ignore (Engine.schedule_in engine hit_latency complete_hit)
    end
    else begin
      Batcher.request batcher key ~ready:(fun result ->
          let ok = match result with Ok { plan = Some _; _ } -> true | _ -> false in
          finish i ~outcome ~ok);
      sample_gauges ()
    end
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
             match sink with
             | None -> ()
             | Some emit ->
               emit
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
     open-loop schedule up front: one closure, over the next index *)
  let next = ref 0 in
  let rec arrive () =
    let i = !next in
    process i;
    next := i + 1;
    if i + 1 < n then
      ignore (Engine.schedule_at engine requests.(i + 1).Workload.arrival arrive)
  in
  if n > 0 then ignore (Engine.schedule_at engine requests.(0).Workload.arrival arrive);
  Engine.run engine;
  let makespan = makespan.(0) in
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

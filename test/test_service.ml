(* The serving control plane: workload generator, LRU cache with epochs,
   single-flight batcher, and the end-to-end server — including the
   byte-determinism of the whole service under any pool width and the
   replay of the committed golden trace. *)

module Graph = Topo.Graph
module Workload = Kar_service.Workload
module Cache = Kar_service.Cache
module Batcher = Kar_service.Batcher
module Server = Kar_service.Server
module Engine = Netsim.Engine
module Pool = Util.Pool

let testbed = Experiments.Service.testbed ~n_core:16 ()

(* --- Stats percentiles (satellite of the service metrics) --- *)

let test_percentiles () =
  let nr = Util.Stats.percentile_nearest_rank in
  let xs = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.0)) "p50 of 1..100" 50.0 (nr 50.0 xs);
  Alcotest.(check (float 0.0)) "p95 of 1..100" 95.0 (nr 95.0 xs);
  Alcotest.(check (float 0.0)) "p99 of 1..100" 99.0 (nr 99.0 xs);
  Alcotest.(check (float 0.0)) "p100 is the max" 100.0
    (nr 100.0 xs);
  Alcotest.(check (float 0.0)) "tiny p is the min" 1.0
    (nr 0.5 xs);
  (* nearest-rank returns an observed sample, input order irrelevant *)
  let ys = [| 9.0; 1.0; 5.0 |] in
  Alcotest.(check (float 0.0)) "p50 of 3" 5.0 (nr 50.0 ys);
  Alcotest.(check (float 0.0)) "p99 of 3" 9.0 (nr 99.0 ys);
  Alcotest.(check (float 0.0)) "singleton" 7.0 (nr 99.0 [| 7.0 |]);
  Alcotest.check_raises "empty rejected"
    (Invalid_argument "Stats.percentile_nearest_rank: empty") (fun () ->
      ignore (nr 50.0 [||]));
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Stats.percentile_nearest_rank: p out of range")
    (fun () -> ignore (nr 0.0 ys))

(* --- workload generator --- *)

let test_workload_deterministic () =
  let sp = { Workload.default with Workload.n = 500 } in
  let a = Workload.generate testbed sp in
  let b = Workload.generate testbed sp in
  Alcotest.(check bool) "same spec, same workload" true (a = b);
  let c =
    Workload.generate testbed { sp with Workload.seed = sp.Workload.seed + 1 }
  in
  Alcotest.(check bool) "seed changes the workload" true (a <> c)

let test_workload_shape () =
  let sp = { Workload.default with Workload.n = 1_000 } in
  let reqs = Workload.generate testbed sp in
  Alcotest.(check int) "count" 1_000 (Array.length reqs);
  Array.iteri
    (fun i (r : Workload.request) ->
      Alcotest.(check int) "seq" i r.Workload.seq;
      Alcotest.(check bool) "src is edge" false (Graph.is_core testbed r.Workload.src);
      Alcotest.(check bool) "dst is edge" false (Graph.is_core testbed r.Workload.dst);
      Alcotest.(check bool) "src <> dst" true (r.Workload.src <> r.Workload.dst);
      Alcotest.(check bool) "arrivals strictly increase" true
        (r.Workload.arrival > (if i = 0 then 0.0 else reqs.(i - 1).Workload.arrival)))
    reqs;
  (* open loop: mean inter-arrival ~ 1/rate (Poisson, so loose bounds) *)
  let span = reqs.(999).Workload.arrival -. reqs.(0).Workload.arrival in
  let mean_gap = span /. 999.0 in
  Alcotest.(check bool) "mean inter-arrival within 20% of 1/rate" true
    (mean_gap > 0.8 /. sp.Workload.rate && mean_gap < 1.2 /. sp.Workload.rate)

let count_top_pair skew =
  let sp = { Workload.default with Workload.n = 2_000; skew } in
  let reqs = Workload.generate testbed sp in
  let top_src, top_dst = (Workload.pairs testbed ~seed:sp.Workload.seed).(0) in
  Array.fold_left
    (fun n (r : Workload.request) ->
      if r.Workload.src = top_src && r.Workload.dst = top_dst then n + 1 else n)
    0 reqs

let test_workload_zipf_skew () =
  let uniform = count_top_pair 0.0 and skewed = count_top_pair 1.2 in
  (* 240 pairs at skew 0: the top pair gets ~8 of 2000; at skew 1.2 the
     head dominates.  Factor 5 keeps the test far from both. *)
  Alcotest.(check bool)
    (Printf.sprintf "skew concentrates the head (%d -> %d)" uniform skewed)
    true
    (skewed > 5 * (max 1 uniform))

let test_pairs_ranked_universe () =
  let pairs = Workload.pairs testbed ~seed:3 in
  let edges = List.length (Graph.edge_nodes testbed) in
  Alcotest.(check int) "all ordered pairs" (edges * (edges - 1)) (Array.length pairs);
  let seen = Hashtbl.create 97 in
  Array.iter
    (fun (s, d) ->
      Alcotest.(check bool) "distinct endpoints" true (s <> d);
      Alcotest.(check bool) "no duplicate pair" false (Hashtbl.mem seen (s, d));
      Hashtbl.add seen (s, d) ())
    pairs;
  (* rank order is a function of the seed, not of node numbering *)
  Alcotest.(check bool) "seed shuffles ranks" true
    (Workload.pairs testbed ~seed:3 <> Workload.pairs testbed ~seed:4)

(* --- LRU cache with epochs --- *)

(* A lookup's class and, on a hit, the value it found. *)
let classify c k =
  let s = Cache.lookup c k in
  if s >= 0 then `Hit (Cache.value c s)
  else if s = Cache.lookup_stale then `Stale
  else if s = Cache.lookup_miss then `Miss
  else Alcotest.failf "lookup %d returned %d" k s

let test_cache_lru_eviction () =
  let c = Cache.create ~capacity:2 () in
  Cache.put c 10 1;
  Cache.put c 20 2;
  (* touch 10 so 20 is the LRU entry *)
  Alcotest.(check bool) "10 hits" true (classify c 10 = `Hit 1);
  Cache.put c 30 3;
  Alcotest.(check bool) "20 evicted" true (classify c 20 = `Miss);
  Alcotest.(check bool) "10 survives" true (classify c 10 = `Hit 1);
  Alcotest.(check bool) "30 resident" true (classify c 30 = `Hit 3);
  Alcotest.(check int) "one eviction" 1 (Cache.evictions c);
  Alcotest.(check int) "size at capacity" 2 (Cache.size c)

let test_cache_epoch_invalidation () =
  let c = Cache.create ~capacity:8 () in
  Cache.put c 1 "one";
  Cache.put c 2 "two";
  Cache.bump_epoch c;
  Alcotest.(check int) "epoch bumped" 1 (Cache.epoch c);
  Alcotest.(check bool) "stale, not hit" true (classify c 1 = `Stale);
  (* the stale entry was dropped by the lookup *)
  Alcotest.(check bool) "second lookup is a cold miss" true (classify c 1 = `Miss);
  (* refilled entries hit under the new epoch *)
  Cache.put c 1 "one'";
  Alcotest.(check bool) "refill hits" true (classify c 1 = `Hit "one'");
  Alcotest.(check int) "stale counted once" 1 (Cache.stale c);
  Alcotest.(check int) "evictions untouched by epochs" 0 (Cache.evictions c)

let test_cache_hit_ratio () =
  let c = Cache.create ~capacity:4 () in
  Alcotest.(check (float 0.0)) "no lookups yet" 0.0 (Cache.hit_ratio c);
  Cache.put c 0 0;
  ignore (Cache.lookup c 0);
  ignore (Cache.lookup c 0);
  ignore (Cache.lookup c 9);
  ignore (Cache.lookup c 9);
  Alcotest.(check (float 1e-9)) "2 hits of 4" 0.5 (Cache.hit_ratio c)

(* The cache against a list-based LRU: entries most recent first, each
   with the epoch it was put under.  Every lookup's class and value, the
   four counters and the size must agree after every step.  Capacities
   1-8 draw keys from 0-9; a quarter of the cases take capacities 9-24
   and keys 0-29, so the slot arrays grow past their first 8 slots with
   entries resident. *)
type cache_op = Put of int * int | Lookup of int | Bump

let show_op = function
  | Put (k, v) -> Printf.sprintf "put %d %d" k v
  | Lookup k -> Printf.sprintf "lookup %d" k
  | Bump -> "bump"

let cache_matches_model =
  let op keys =
    QCheck.Gen.(
      frequency
        [
          (4, map2 (fun k v -> Put (k, v)) (int_bound keys) (int_bound 99));
          (5, map (fun k -> Lookup k) (int_bound keys));
          (1, return Bump);
        ])
  in
  let arb =
    QCheck.make
      ~shrink:QCheck.Shrink.(pair nil list)
      ~print:(fun (cap, ops) ->
        Printf.sprintf "capacity %d: %s" cap (String.concat ", " (List.map show_op ops)))
      QCheck.Gen.(
        frequency [ (3, int_range 1 8); (1, int_range 9 24) ] >>= fun cap ->
        let keys = if cap <= 8 then 9 else 29 in
        pair (return cap) (list_size (int_range 0 120) (op keys)))
  in
  QCheck.Test.make ~count:500 ~name:"cache = list-based LRU model" arb (fun (cap, ops) ->
      let c = Cache.create ~capacity:cap () in
      let entries = ref [] and epoch = ref 0 in
      let hits = ref 0 and misses = ref 0 and stale = ref 0 and evictions = ref 0 in
      let without k = List.filter (fun (k', _, _) -> k' <> k) in
      List.iteri
        (fun step op ->
          (match op with
           | Put (k, v) ->
             Cache.put c k v;
             if not (List.exists (fun (k', _, _) -> k' = k) !entries) then
               while List.length !entries >= cap do
                 entries := List.filteri (fun i _ -> i < List.length !entries - 1) !entries;
                 incr evictions
               done;
             entries := (k, v, !epoch) :: without k !entries
           | Lookup k ->
             let expected =
               match List.find_opt (fun (k', _, _) -> k' = k) !entries with
               | None ->
                 incr misses;
                 `Miss
               | Some (_, v, e) when e = !epoch ->
                 incr hits;
                 entries := (k, v, e) :: without k !entries;
                 `Hit v
               | Some _ ->
                 incr stale;
                 entries := without k !entries;
                 `Stale
             in
             if classify c k <> expected then
               QCheck.Test.fail_reportf "step %d (%s): lookup disagrees with the model"
                 step (show_op op)
           | Bump ->
             Cache.bump_epoch c;
             incr epoch);
          let got = (Cache.hits c, Cache.misses c, Cache.stale c, Cache.evictions c, Cache.size c) in
          let want = (!hits, !misses, !stale, !evictions, List.length !entries) in
          if got <> want then
            QCheck.Test.fail_reportf "step %d (%s): counters or size disagree" step (show_op op))
        ops;
      true)

(* --- single-flight batcher --- *)

let mk_batcher ?(batch_size = 2) ?(max_delay = 0.01) ?(workers = 1) engine =
  Batcher.create ~engine ~batch_size ~max_delay ~workers
    ~dispatch_overhead:0.0
    ~compute:(fun k -> k * 10)
    ~cost:(fun _ _ -> 0.001)
    ()

let test_batcher_single_flight () =
  let engine = Engine.create () in
  let b = mk_batcher engine in
  let got = ref [] in
  let ready tag r =
    got := (tag, Engine.now engine, Result.get_ok r) :: !got
  in
  ignore
    (Engine.schedule_at engine 0.0 (fun () ->
         Batcher.request b 1 ~ready:(ready "first");
         Batcher.request b 1 ~ready:(ready "dup");
         Alcotest.(check int) "one distinct key queued" 1 (Batcher.queued b);
         Alcotest.(check int) "two waiters" 2 (Batcher.waiting b);
         (* second distinct key reaches batch_size: dispatch *)
         Batcher.request b 2 ~ready:(ready "other")));
  Engine.run engine;
  Alcotest.(check int) "one batch" 1 (Batcher.batches b);
  Alcotest.(check int) "two keys planned" 2 (Batcher.computed b);
  Alcotest.(check int) "one request coalesced" 1 (Batcher.coalesced b);
  Alcotest.(check int) "max batch" 2 (Batcher.max_batch b);
  let by_tag tag = List.find (fun (t, _, _) -> t = tag) !got in
  let _, t1, v1 = by_tag "first" and _, td, vd = by_tag "dup" in
  let _, t2, v2 = by_tag "other" in
  Alcotest.(check int) "key 1 value" 10 v1;
  Alcotest.(check int) "dup shares the result" 10 vd;
  Alcotest.(check int) "key 2 value" 20 v2;
  (* one modelled worker serves the two keys back to back *)
  Alcotest.(check (float 1e-12)) "key 1 completion" 0.001 t1;
  Alcotest.(check (float 1e-12)) "dup completes with its key" t1 td;
  Alcotest.(check (float 1e-12)) "key 2 queues behind key 1" 0.002 t2

let test_batcher_timer_dispatch () =
  let engine = Engine.create () in
  let b = mk_batcher ~batch_size:100 ~max_delay:0.005 engine in
  let done_at = ref nan in
  ignore
    (Engine.schedule_at engine 0.0 (fun () ->
         Batcher.request b 7 ~ready:(fun r ->
             Alcotest.(check int) "value" 70 (Result.get_ok r);
             done_at := Engine.now engine)));
  Engine.run engine;
  (* never reached batch_size: the max_delay timer fired the batch *)
  Alcotest.(check (float 1e-12)) "timer + modelled cost" 0.006 !done_at;
  Alcotest.(check int) "one batch" 1 (Batcher.batches b)

let test_batcher_compute_error () =
  let engine = Engine.create () in
  let b =
    Batcher.create ~engine ~batch_size:1 ~max_delay:0.01 ~workers:1
      ~dispatch_overhead:0.0
      ~compute:(fun k -> if k = 13 then failwith "unlucky" else k)
      ~cost:(fun _ _ -> 0.001)
      ()
  in
  let ok = ref 0 and err = ref 0 in
  ignore
    (Engine.schedule_at engine 0.0 (fun () ->
         Batcher.request b 13 ~ready:(fun r ->
             match r with Ok _ -> incr ok | Error _ -> incr err);
         Batcher.request b 5 ~ready:(fun r ->
             match r with Ok _ -> incr ok | Error _ -> incr err)));
  Engine.run engine;
  Alcotest.(check int) "error delivered as Error" 1 !err;
  Alcotest.(check int) "other key unaffected" 1 !ok

(* --- end-to-end server --- *)

let small_run ?failures ?sink () =
  let sp =
    { Workload.default with Workload.n = 1_000; rate = 10_000.0; seed = 5 }
  in
  let reqs = Workload.generate testbed sp in
  let server = Server.create ~graph:testbed () in
  Server.run server ?sink ?failures ~keep_records:true reqs

let test_server_serves_everyone () =
  let r = small_run () in
  Alcotest.(check int) "all requests recorded" 1_000
    (Array.length r.Server.records);
  Array.iter
    (fun (rec_ : Server.record) ->
      Alcotest.(check bool) "completion after arrival" true
        (rec_.Server.completion > rec_.Server.arrival))
    r.Server.records;
  Alcotest.(check int) "nothing unroutable on a healthy graph" 0 r.Server.unroutable;
  Alcotest.(check bool) "cache did some work" true (r.Server.hit_ratio > 0.3);
  Alcotest.(check bool) "percentiles ordered" true
    (r.Server.p50 <= r.Server.p95 && r.Server.p95 <= r.Server.p99);
  (* conservation: every lookup outcome is a hit, a miss, or stale *)
  Alcotest.(check int) "lookup conservation" 1_000
    (r.Server.cache_hits + r.Server.cache_misses + r.Server.cache_stale)

let render_at_jobs jobs render =
  Pool.set_jobs jobs;
  let out = render () in
  Pool.set_jobs (Pool.default_jobs ());
  out

let test_trace_deterministic_vs_jobs () =
  let at1 = render_at_jobs 1 Experiments.Service.canonical_trace in
  let at8 = render_at_jobs 8 Experiments.Service.canonical_trace in
  Alcotest.(check bool) "canonical trace byte-identical at -j 1 and -j 8" true
    (String.equal at1 at8)

let test_trace_matches_fixture () =
  (* dune runtest stages the fixture next to the executable; a bare
     `dune exec test/test_service.exe` runs from the repo root *)
  let path =
    let f = "fixtures/service_1k.jsonl" in
    if Sys.file_exists f then f else Filename.concat "test" f
  in
  let ic = open_in_bin path in
  let golden = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let fresh = Experiments.Service.canonical_trace () in
  Alcotest.(check bool)
    "fresh trace byte-identical to committed fixture (regenerate with \
     test/gen_fixtures.exe after intentional changes)"
    true
    (String.equal golden fresh)

let test_svc_experiment_deterministic () =
  let render () = Experiments.Service.to_string ~profile:Experiments.Profile.quick () in
  let at1 = render_at_jobs 1 render in
  let at8 = render_at_jobs 8 render in
  Alcotest.(check bool) "svc output byte-identical at -j 1 and -j 8" true
    (String.equal at1 at8)

(* Events are built only for a listener; with one or without, the run
   itself must not change.  This run fails a link and repairs it mid-run,
   so it has stale lookups, and it has misses that coalesce onto a key
   already queued or in flight. *)
let test_sink_paths_agree () =
  let sp = { Workload.default with Workload.n = 2_000; rate = 10_000.0; seed = 11 } in
  let reqs = Workload.generate testbed sp in
  let horizon = reqs.(Array.length reqs - 1).Workload.arrival in
  let link = Experiments.Service.storm_link testbed in
  let failures = [ (0.4 *. horizon, `Fail link); (0.7 *. horizon, `Repair link) ] in
  let serve sink =
    Server.run (Server.create ~graph:testbed ()) ?sink ~failures ~keep_records:true reqs
  in
  let heard = ref 0 in
  let quiet = serve None in
  let loud = serve (Some (fun _ -> incr heard)) in
  Alcotest.(check int) "failed and repaired" 2 quiet.Server.epoch;
  Alcotest.(check bool) "stale lookups" true (quiet.Server.cache_stale > 0);
  Alcotest.(check bool) "coalesced misses" true (quiet.Server.coalesced > 0);
  Alcotest.(check bool) "the sink heard the run" true (!heard > Array.length reqs);
  Alcotest.(check bool) "same report, records included" true (quiet = loud)

(* A cache hit's marginal allocation.  Two runs over one key universe that
   fits the cache: the first 20,000 requests of a 200,000-request workload,
   then the whole workload less the requests for keys those 20,000 never
   asked for.  The longer run adds no miss, so the words its extra
   requests allocate are hits' alone: the engine's clock boxes, two words
   for each of a hit's two events (its arrival and its answer). *)
let test_hit_allocation_bound () =
  let sp =
    { Workload.default with Workload.n = 200_000; rate = 40_000.0; skew = 1.1; seed = 3 }
  in
  let reqs = Workload.generate testbed sp in
  let short = Array.sub reqs 0 20_000 in
  let key (r : Workload.request) = (r.src, r.dst, r.level, r.policy) in
  let universe = Hashtbl.create 1024 in
  Array.iter (fun r -> Hashtbl.replace universe (key r) ()) short;
  let long =
    Array.of_list (List.filter (fun r -> Hashtbl.mem universe (key r)) (Array.to_list reqs))
  in
  let serve reqs =
    let pool = Pool.create ~jobs:1 in
    let server =
      Server.create
        ~config:{ Server.default_config with Server.cache_capacity = 4096 }
        ~pool ~graph:testbed ()
    in
    let w0 = Gc.minor_words () in
    let r = Server.run server reqs in
    let w = Gc.minor_words () -. w0 in
    Pool.shutdown pool;
    (r.Server.cache_misses, w)
  in
  let short_misses, w_short = serve short in
  let long_misses, w_long = serve long in
  Alcotest.(check int) "the longer run adds no miss" short_misses long_misses;
  let extra = Array.length long - Array.length short in
  Alcotest.(check bool) "most requests kept" true (extra > 170_000);
  let per_hit = (w_long -. w_short) /. float_of_int extra in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f minor words per extra request, at most 4.5" per_hit)
    true (per_hit <= 4.5)

(* --- the replan storm: epoch invalidation then recovery --- *)

let test_storm_invalidation_and_recovery () =
  let s = Experiments.Service.storm () in
  let r = s.Experiments.Service.report in
  Alcotest.(check int) "fail + repair bumped the epoch twice" 2 r.Server.epoch;
  Alcotest.(check bool) "invalidation produced stale lookups" true
    (r.Server.cache_stale > 0);
  let ratios = s.Experiments.Service.hit_ratio_per_bucket in
  let bucket t =
    Stdlib.min (Array.length ratios - 1) (int_of_float (t /. s.Experiments.Service.bucket_s))
  in
  let fail_b = bucket s.Experiments.Service.fail_at in
  let repair_b = bucket s.Experiments.Service.repair_at in
  (* the failure bucket pays the miss storm... *)
  Alcotest.(check bool)
    (Printf.sprintf "hit ratio dips at the failure (%.2f -> %.2f)"
       ratios.(fail_b - 1) ratios.(fail_b))
    true
    (ratios.(fail_b) < ratios.(fail_b - 1));
  (* ...and the cache refills against the new epoch before the repair *)
  Alcotest.(check bool)
    (Printf.sprintf "hit ratio recovers before the repair (%.2f -> %.2f)"
       ratios.(fail_b) ratios.(repair_b - 1))
    true
    (ratios.(repair_b - 1) > ratios.(fail_b));
  (* the repair is its own storm, recovered by the end of the run *)
  let last = Array.length ratios - 1 in
  Alcotest.(check bool)
    (Printf.sprintf "recovered after the repair (%.2f -> %.2f)"
       ratios.(repair_b) ratios.(last))
    true
    (ratios.(last) > ratios.(repair_b))

let test_failed_link_avoided () =
  (* plans computed after the failure route around the failed link *)
  let g = testbed in
  let link = Experiments.Service.storm_link g in
  let sp = { Workload.default with Workload.n = 400; rate = 10_000.0; seed = 5 } in
  let reqs = Workload.generate g sp in
  let server = Server.create ~graph:g () in
  Server.fail_link server link;
  let r = Server.run server reqs in
  let l = Graph.link g link in
  let a = l.Graph.ep0.Graph.node and b = l.Graph.ep1.Graph.node in
  Alcotest.(check bool) "still mostly routable" true
    (r.Server.unroutable < Array.length reqs / 10);
  (* spot-check via the controller: a replan under the same restriction
     never crosses the failed link *)
  let src, dst = (Workload.pairs g ~seed:sp.Workload.seed).(0) in
  let usable (l' : Graph.link) = l'.Graph.id <> link in
  let plan = Kar.Controller.route ~usable g ~src ~dst ~protection:[] in
  let rec hops = function
    | x :: (y :: _ as tl) -> (x, y) :: hops tl
    | _ -> []
  in
  List.iter
    (fun (x, y) ->
      Alcotest.(check bool) "avoids the failed link" false
        ((x = a && y = b) || (x = b && y = a)))
    (hops plan.Kar.Route.core_path)

(* A failure schedule naming a link the graph lacks is refused before the
   first request is served, by a message naming the id and the graph's
   link count; a direct fail or repair of that link is refused the same
   way. *)
let test_unknown_link_rejected () =
  let g = Topo.Nets.net15.Topo.Nets.graph in
  let reqs =
    Workload.generate g
      { Workload.default with Workload.n = 100; rate = 10_000.0; seed = 5 }
  in
  let names_link what msg =
    List.iter
      (fun affix ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %S names %s" what msg affix)
          true
          (Astring.String.is_infix ~affix msg))
      [ "9999"; Printf.sprintf "%d links" (Graph.n_links g) ]
  in
  let served = ref 0 in
  let sink = function Kar_service.Event.Request _ -> incr served | _ -> () in
  let server = Server.create ~graph:g () in
  (match
     Server.run server ~sink ~failures:[ (0.0005, `Repair 3); (0.001, `Fail 9999) ] reqs
   with
   | _ -> Alcotest.fail "a schedule naming link 9999 ran"
   | exception Invalid_argument msg -> names_link "run" msg);
  Alcotest.(check int) "no request served" 0 !served;
  List.iter
    (fun (what, f) ->
      match f server 9999 with
      | () -> Alcotest.failf "%s accepted link 9999" what
      | exception Invalid_argument msg -> names_link what msg)
    [ ("fail_link", Server.fail_link); ("repair_link", Server.repair_link) ]

let () =
  Alcotest.run "service"
    [
      ( "stats",
        [ Alcotest.test_case "nearest-rank percentiles" `Quick test_percentiles ] );
      ( "workload",
        [
          Alcotest.test_case "deterministic in the spec" `Quick
            test_workload_deterministic;
          Alcotest.test_case "shape and arrivals" `Quick test_workload_shape;
          Alcotest.test_case "zipf skew concentrates" `Quick test_workload_zipf_skew;
          Alcotest.test_case "pair universe" `Quick test_pairs_ranked_universe;
        ] );
      ( "cache",
        [
          Alcotest.test_case "lru eviction order" `Quick test_cache_lru_eviction;
          Alcotest.test_case "epoch invalidation" `Quick test_cache_epoch_invalidation;
          Alcotest.test_case "hit ratio" `Quick test_cache_hit_ratio;
          QCheck_alcotest.to_alcotest cache_matches_model;
        ] );
      ( "batcher",
        [
          Alcotest.test_case "single flight" `Quick test_batcher_single_flight;
          Alcotest.test_case "timer dispatch" `Quick test_batcher_timer_dispatch;
          Alcotest.test_case "compute error" `Quick test_batcher_compute_error;
        ] );
      ( "server",
        [
          Alcotest.test_case "serves everyone" `Quick test_server_serves_everyone;
          Alcotest.test_case "trace deterministic vs -j" `Quick
            test_trace_deterministic_vs_jobs;
          Alcotest.test_case "golden fixture replay" `Quick test_trace_matches_fixture;
          Alcotest.test_case "a sink changes no report" `Quick test_sink_paths_agree;
          Alcotest.test_case "a hit allocates only clock boxes" `Quick
            test_hit_allocation_bound;
          Alcotest.test_case "svc experiment deterministic vs -j" `Slow
            test_svc_experiment_deterministic;
        ] );
      ( "storm",
        [
          Alcotest.test_case "invalidation then recovery" `Quick
            test_storm_invalidation_and_recovery;
          Alcotest.test_case "replans avoid the failed link" `Quick
            test_failed_link_avoided;
          Alcotest.test_case "a link the graph lacks is refused up front" `Quick
            test_unknown_link_rejected;
        ] );
    ]

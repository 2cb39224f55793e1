module Graph = Topo.Graph
module Workload = Kar_service.Workload
module Server = Kar_service.Server

(* A serving testbed needs a (src, dst) universe big enough to pressure a
   bounded cache: a KAR-labelled Waxman core with one edge host per switch
   gives n*(n-1) orderable pairs (992 at the default 32 cores). *)
let testbed ?(n_core = 32) ?(seed = 7) () =
  let base = Topo.Gen.waxman ~n:n_core ~alpha:0.9 ~beta:0.35 ~seed in
  let g = Kar.Ids.assign base Kar.Ids.Prime_powers in
  let g, _hosts = Topo.Gen.with_edge_hosts g (Graph.core_nodes g) in
  g

(* Full protection on a 32-core graph folds ~30 tree hops into every plan;
   the serving studies stay with the levels a production planner would
   batch at rate: unprotected and radius-1 partial. *)
(* 10 k req/s keeps the miss inter-arrival time inside the batch window, so
   dispatches actually carry batches (and replan storms coalesce). *)
let spec ~requests =
  {
    Workload.default with
    Workload.n = requests;
    rate = 10_000.0;
    skew = 0.9;
    levels = [| Kar.Controller.Unprotected; Kar.Controller.Partial |];
    seed = 11;
  }

let bench_workload ~requests =
  let g = testbed () in
  (g, Workload.generate g (spec ~requests))

let bench_serve ?pool g reqs =
  let server = Server.create ?pool ~graph:g () in
  Server.run server reqs

let is_paper = function
  | Some p -> p.Profile.name = Profile.paper.Profile.name
  | None -> (Profile.from_env ()).Profile.name = Profile.paper.Profile.name

let ms v = Printf.sprintf "%.3f" (v *. 1e3)
let pct v = Printf.sprintf "%.1f%%" (100.0 *. v)

(* --- steady state --- *)

let steady_to_string ~paper () =
  let requests = if paper then 40_000 else 4_000 in
  let g, reqs = bench_workload ~requests in
  let r = bench_serve g reqs in
  "Service steady state: open-loop Zipf workload against the plan server\n"
  ^ Util.Texttab.render_kv
      [
        ("requests", string_of_int r.Server.requests);
        ("virtual throughput (req/s)", Printf.sprintf "%.0f" r.Server.virtual_rps);
        ("cache hit ratio", pct r.Server.hit_ratio);
        ("latency p50 (ms)", ms r.Server.p50);
        ("latency p95 (ms)", ms r.Server.p95);
        ("latency p99 (ms)", ms r.Server.p99);
        ("plans computed", string_of_int r.Server.planned);
        ("batches", string_of_int r.Server.batches);
        ( "mean batch size",
          Printf.sprintf "%.1f"
            (if r.Server.batches = 0 then 0.0
             else float_of_int r.Server.planned /. float_of_int r.Server.batches) );
        ("coalesced (single-flight)", string_of_int r.Server.coalesced);
        ("max keys in flight", string_of_int r.Server.max_depth);
        ("unroutable", string_of_int r.Server.unroutable);
      ]

(* --- hit ratio vs Zipf skew --- *)

let skew_sweep_to_string ~paper () =
  let requests = if paper then 20_000 else 3_000 in
  let g = testbed () in
  let rows =
    (* each skew is an independent server over the same immutable graph *)
    Util.Pool.run [| 0.0; 0.5; 0.9; 1.2; 1.5 |] ~f:(fun ~idx:_ skew ->
        let reqs =
          Workload.generate g { (spec ~requests) with Workload.skew }
        in
        let r = bench_serve g reqs in
        [
          Printf.sprintf "%.1f" skew;
          pct r.Server.hit_ratio;
          ms r.Server.p50;
          ms r.Server.p99;
          string_of_int r.Server.planned;
          string_of_int r.Server.coalesced;
          string_of_int r.Server.cache_evictions;
        ])
    |> Array.to_list
  in
  "Cache hit ratio vs Zipf skew (same testbed, same request count)\n"
  ^ Util.Texttab.render
      ~header:
        [ "Skew"; "Hit ratio"; "p50 (ms)"; "p99 (ms)"; "Planned"; "Coalesced";
          "Evictions" ]
      rows
  ^ "Uniform traffic (skew 0) defeats a bounded cache; with a realistic \
     head (skew >= 0.9) most requests are answered in microseconds and the \
     planner only sees the tail.\n"

(* --- the replan storm --- *)

type storm = {
  report : Server.report;
  bucket_s : float;
  hit_ratio_per_bucket : float array;
  fail_at : float;
  repair_at : float;
  metrics_summary : string; (* end-of-run registry summary *)
  span_summary : string;
}

(* The failed link: a core-core link on the most popular pair's primary
   path when it has one, else the graph's first core-core link.  What
   matters is the epoch bump; routing around the failure is a bonus the
   report's unroutable column keeps honest. *)
let storm_link g =
  let core_core l =
    Graph.is_core g l.Graph.ep0.Graph.node && Graph.is_core g l.Graph.ep1.Graph.node
  in
  let fallback () = (List.find core_core (Graph.links g)).Graph.id in
  let src, dst = (Workload.pairs g ~seed:11).(0) in
  match (Kar.Controller.route g ~src ~dst ~protection:[]).Kar.Route.core_path with
  | a :: b :: _ -> (match Graph.link_between g a b with Some l -> l | None -> fallback ())
  | _ -> fallback ()

let storm ?profile () =
  let paper = is_paper profile in
  let requests = if paper then 30_000 else 4_000 in
  let g = testbed () in
  let sp = spec ~requests in
  let reqs = Workload.generate g sp in
  let horizon = float_of_int requests /. sp.Workload.rate in
  let fail_at = 0.5 *. horizon and repair_at = 0.75 *. horizon in
  let link = storm_link g in
  let server = Server.create ~graph:g () in
  let report =
    Server.run server ~keep_records:true
      ~failures:[ (fail_at, `Fail link); (repair_at, `Repair link) ]
      reqs
  in
  let buckets = 16 in
  let bucket_s = horizon /. float_of_int buckets in
  let hits = Array.make buckets 0 and totals = Array.make buckets 0 in
  Array.iter
    (fun (r : Server.record) ->
      let b = Stdlib.min (buckets - 1) (int_of_float (r.Server.arrival /. bucket_s)) in
      totals.(b) <- totals.(b) + 1;
      if r.Server.outcome = Kar_service.Event.Hit then hits.(b) <- hits.(b) + 1)
    report.Server.records;
  let hit_ratio_per_bucket =
    Array.init buckets (fun b ->
        if totals.(b) = 0 then 0.0
        else float_of_int hits.(b) /. float_of_int totals.(b))
  in
  {
    report;
    bucket_s;
    hit_ratio_per_bucket;
    fail_at;
    repair_at;
    metrics_summary = Kar_obs.Export.summary (Server.registry server);
    span_summary = Kar_obs.Span.summary (Server.spans server);
  }

let storm_to_string ?profile () =
  let s = storm ?profile () in
  let buckets = Array.length s.hit_ratio_per_bucket in
  let r = s.report in
  let stale_per_bucket = Array.make buckets 0 and totals = Array.make buckets 0 in
  Array.iter
    (fun (rec_ : Server.record) ->
      let b =
        Stdlib.min (buckets - 1) (int_of_float (rec_.Server.arrival /. s.bucket_s))
      in
      totals.(b) <- totals.(b) + 1;
      if rec_.Server.outcome = Kar_service.Event.Stale then
        stale_per_bucket.(b) <- stale_per_bucket.(b) + 1)
    r.Server.records;
  let rows =
    List.init buckets (fun b ->
        let t0 = float_of_int b *. s.bucket_s in
        let mark =
          if s.fail_at >= t0 && s.fail_at < t0 +. s.bucket_s then "  <- fail"
          else if s.repair_at >= t0 && s.repair_at < t0 +. s.bucket_s then
            "  <- repair"
          else ""
        in
        [
          Printf.sprintf "%.2f" t0;
          string_of_int totals.(b);
          pct s.hit_ratio_per_bucket.(b);
          string_of_int stale_per_bucket.(b);
          mark;
        ])
  in
  Printf.sprintf
    "Replan storm: link failure at t=%.2fs (epoch bump), repair at t=%.2fs\n"
    s.fail_at s.repair_at
  ^ Util.Texttab.render
      ~header:[ "t (s)"; "Requests"; "Hit ratio"; "Stale"; "" ]
      rows
  ^ "hit ratio  "
  ^ Util.Texttab.spark (Array.to_list s.hit_ratio_per_bucket)
  ^ "\n"
  ^ Printf.sprintf
      "Each epoch bump invalidates the whole cache at once: the next bucket \
       pays a miss storm (stale column), the batcher coalesces it (%d \
       coalesced, %d stale-in-flight plans served uncached), and the hit \
       ratio recovers as plans re-fill against the new epoch.\n"
      r.Server.coalesced r.Server.stale_completions

(* --- golden fixture --- *)

(* The canonical 1k-request trace committed under test/fixtures/: a smaller
   testbed, failure and repair mid-run, every event on the sink.  The
   replay test byte-compares a fresh run (at -j 1 and -j 8) against the
   checked-in file; regenerate with test/gen_fixtures.exe after an
   intentional change to the serving decision sequence. *)
let canonical_trace () =
  let g = testbed ~n_core:16 () in
  let sp = { (spec ~requests:1_000) with Workload.seed = 42 } in
  let reqs = Workload.generate g sp in
  let horizon = float_of_int sp.Workload.n /. sp.Workload.rate in
  let link = storm_link g in
  let buf = Buffer.create (1 lsl 16) in
  let sink e =
    Buffer.add_string buf (Kar_service.Event.to_jsonl e);
    Buffer.add_char buf '\n'
  in
  let server = Server.create ~graph:g () in
  let (_ : Server.report) =
    Server.run server ~sink
      ~failures:[ (0.5 *. horizon, `Fail link); (0.75 *. horizon, `Repair link) ]
      reqs
  in
  Buffer.contents buf

(* --- metrics time series (the --metrics view and its golden fixture) ---

   A canonical kar_serve-style run with one mid-run failure, snapshotted
   every horizon/16 virtual seconds: the JSONL series shows the replan
   storm as data — hit-ratio dip, latency p99 spike, recovery.  Committed
   under test/fixtures/ and byte-compared at -j1/-j8 by test_obs. *)
let canonical_metrics () =
  let g = testbed ~n_core:16 () in
  let sp = { (spec ~requests:1_000) with Workload.seed = 42 } in
  let reqs = Workload.generate g sp in
  let horizon = float_of_int sp.Workload.n /. sp.Workload.rate in
  let link = storm_link g in
  let buf = Buffer.create (1 lsl 14) in
  let metrics_sink line =
    Buffer.add_string buf line;
    Buffer.add_char buf '\n'
  in
  let server = Server.create ~graph:g () in
  let (_ : Server.report) =
    Server.run server ~metrics_every:(horizon /. 16.0) ~metrics_sink
      ~failures:[ (0.5 *. horizon, `Fail link) ]
      reqs
  in
  Buffer.contents buf

(* --- plan digests (golden fixture) ---

   The planner's output on the serving testbeds, condensed to one line per
   testbed, level and failed-link set: the pair count, how many raised,
   and the MD5 of every field of every plan in pair order (the message for
   a pair that raised).  gen:32 plans all 992 ordered edge pairs, with no
   failed link and with links 3 and 17 failed; gen:128 the 50 pairs
   test_kar's header-budget test samples, with no failed link, since its
   full sweep takes tens of seconds.  Committed under test/fixtures/ and
   recomputed by test_kar. *)
let plan_digests () =
  let buf = Buffer.create (1 lsl 20) and out = Buffer.create 1024 in
  let ints l = String.concat "," (List.map string_of_int l) in
  let int_pairs l =
    String.concat "," (List.map (fun (a, b) -> Printf.sprintf "%d:%d" a b) l)
  in
  let plan_into g ?usable (src, dst) level =
    let label = Graph.label g in
    Printf.bprintf buf "%d>%d " (label src) (label dst);
    match Kar.Controller.protected_route ?usable g ~src ~dst ~level with
    | exception Invalid_argument msg ->
      Printf.bprintf buf "error %s\n" msg;
      1
    | p ->
      Printf.bprintf buf "%s %s %d [%s] [%s] [%s]\n"
        (Bignum.Z.to_string p.Kar.Route.route_id)
        (Bignum.Z.to_string p.Kar.Route.modulus)
        p.Kar.Route.bit_length
        (int_pairs (List.map (fun r -> (r.Rns.modulus, r.Rns.value)) p.Kar.Route.residues))
        (ints p.Kar.Route.core_path)
        (int_pairs p.Kar.Route.protection);
      0
  in
  let testbed_lines name g ~failure_sets pairs =
    List.iter
      (fun failed ->
        let usable =
          match failed with
          | [] -> None
          | _ -> Some (fun l -> not (List.mem l.Graph.id failed))
        in
        List.iter
          (fun level ->
            Buffer.clear buf;
            let raised =
              List.fold_left (fun n pair -> n + plan_into g ?usable pair level) 0 pairs
            in
            Printf.bprintf out
              "{\"testbed\":%S,\"level\":%S,\"failed\":[%s],\"pairs\":%d,\"raised\":%d,\"md5\":%S}\n"
              name
              (Kar.Controller.level_to_string level)
              (ints failed)
              (List.length pairs) raised
              (Digest.to_hex (Digest.string (Buffer.contents buf))))
          Kar.Controller.all_levels)
      failure_sets
  in
  let g32 = testbed ~n_core:32 () in
  let edges = Graph.edge_nodes g32 in
  testbed_lines "gen:32" g32 ~failure_sets:[ []; [ 3; 17 ] ]
    (List.concat_map
       (fun src -> List.filter_map (fun dst -> if src = dst then None else Some (src, dst)) edges)
       edges);
  let g128 = testbed ~n_core:128 () in
  let edges = Array.of_list (Graph.edge_nodes g128) in
  let n = Array.length edges in
  testbed_lines "gen:128" g128 ~failure_sets:[ [] ]
    (List.init 50 (fun i ->
         (edges.(i * 13 mod n), edges.((i * 13 + 1 + (i * 7 mod (n - 1))) mod n))));
  Buffer.contents out

let metrics_to_string ?profile () =
  let s = storm ?profile () in
  "Replan-storm registry snapshot (end of run)\n"
  ^ s.metrics_summary ^ s.span_summary

let to_string ?profile ?(metrics = false) () =
  let paper = is_paper profile in
  steady_to_string ~paper ()
  ^ "\n"
  ^ skew_sweep_to_string ~paper ()
  ^ "\n"
  ^ storm_to_string ?profile ()
  ^ (if metrics then "\n" ^ metrics_to_string ?profile () else "")

(* Runs one workload for a fixed wall-clock budget and turns its passes
   into the metrics BENCHMARK.json names.

   A run is one warm-up pass at a tenth of the size, then measured passes
   until the budget is spent (at least [min_passes]).  Every end-to-end
   metric is a median over untraced passes.  With tracing on, traced and
   untraced passes alternate: per-layer timings come from the traced
   passes, and the gap between the two kinds is the tracing overhead. *)

open Workloads

let min_passes = 3

(* --- per-layer metrics --- *)

type view = {
  p : pass; (* a traced pass *)
  s : Probe.snapshot; (* its spans *)
  untraced_run_s : float; (* median run wall of the untraced passes *)
  words_per_op : float; (* median over untraced passes *)
  overhead : float; (* traced / untraced run wall, minus 1 *)
}

let value v k =
  match List.assoc_opt k v.p.det with
  | Some x -> x
  | None -> Option.value ~default:0.0 (List.assoc_opt k v.p.exec)

let div a b = if b = 0.0 then 0.0 else a /. b
let count_of k = ("count", fun v -> value v k)
let ns_of a = float_of_int a
let self v s = ns_of v.s.Probe.self_ns.(Probe.index s)
let incl v s = ns_of v.s.Probe.incl_ns.(Probe.index s)
let p50 v s = ns_of v.s.Probe.p50_ns.(Probe.index s)
let p99 v s = ns_of v.s.Probe.p99_ns.(Probe.index s)
let mean_ns v s = Probe.mean_ns v.s s

let per_layer : (string * (string * (view -> float))) list =
  [
      ("engine.events_per_op", ("events/op", fun v -> div (value v "engine.events") (float_of_int v.p.ops)));
      ("engine.ns_per_event", ("ns", fun v -> div (v.untraced_run_s *. 1e9) (value v "engine.events")));
      ("engine.heap_peak", count_of "engine.heap_peak");
      ("net.inject_ns_p50", ("ns", fun v -> p50 v Probe.Net_inject));
      ("net.inject_ns_p99", ("ns", fun v -> p99 v Probe.Net_inject));
      ("net.ns_per_hop", ("ns", fun v -> div (self v Probe.Run) (value v "net.hops")));
      ("net.hops_per_pkt", ("hops/pkt", fun v -> div (value v "net.hops") (value v "net.injected")));
      ("net.drop_link_down", count_of "net.drop_link_down");
      ("net.drop_queue_full", count_of "net.drop_queue_full");
      ("net.drop_no_route", count_of "net.drop_no_route");
      ("net.drop_ttl", count_of "net.drop_ttl");
      ( "net.loss_ratio",
        ( "ratio",
          fun v ->
            div (value v "net.injected" -. value v "net.delivered") (value v "net.injected") ) );
      ("net.queue_peak_bytes", ("bytes", fun v -> value v "net.queue_peak_bytes"));
      ("net.pool_grows", count_of "net.pool_grows");
      ("net.epochs", count_of "net.epochs");
      ("net.ns_per_epoch", ("ns", fun v -> div (v.untraced_run_s *. 1e9) (value v "net.epochs")));
      ("net.domains", count_of "net.domains");
      ("net.vlat_p50_us", ("us", fun v -> value v "net.vlat_p50_us"));
      ("net.vlat_p999_us", ("us", fun v -> value v "net.vlat_p999_us"));
      ("net.vlat_samples", count_of "net.vlat_samples");
      ("karnet.deflect_ratio", ("ratio", fun v -> div (value v "net.deflections") (value v "net.hops")));
      ("karnet.reencodes", count_of "net.reencodes");
      ("karnet.reencode_ns", ("ns", fun v -> mean_ns v Probe.Karnet_reencode));
      ("controller.plan_ms", ("ms", fun v -> mean_ns v Probe.Controller_plan /. 1e6));
      ("controller.plans", count_of "controller.plans");
      ("scenario.gen_s", ("s", fun v -> incl v Probe.Scenario_gen /. 1e9));
      ("scenario.events", count_of "scenario.events");
      ("workload.gen_s", ("s", fun v -> incl v Probe.Workload_gen /. 1e9));
      ("cache.hit", count_of "cache.hit");
      ("cache.miss", count_of "cache.miss");
      ("cache.stale", count_of "cache.stale");
      ("cache.evict", count_of "cache.evict");
      ("cache.hit_ratio", ("ratio", fun v -> value v "cache.hit_ratio"));
      ("batcher.plan_us", ("us", fun v -> div (incl v Probe.Batcher_plan /. 1e3) (value v "batcher.planned")));
      ("batcher.plan_share", ("ratio", fun v -> div (incl v Probe.Batcher_plan) (incl v Probe.Run)));
      ( "batcher.keys_per_batch",
        ("keys/batch", fun v -> div (value v "batcher.planned") (value v "batcher.batches")) );
      ("batcher.coalesced", count_of "batcher.coalesced");
      ("server.loop_ns_per_req", ("ns", fun v -> div (self v Probe.Run) (value v "server.requests")));
      ("server.epochs", count_of "server.epochs");
      ("server.unroutable", count_of "server.unroutable");
      ("server.vlat_p50_ms", ("ms", fun v -> value v "server.vlat_p50_ms"));
      ("server.vlat_p99_ms", ("ms", fun v -> value v "server.vlat_p99_ms"));
      ("verifier.prepare_ms", ("ms", fun v -> mean_ns v Probe.Verifier_prepare /. 1e6));
      ("verifier.verify_us_p50", ("us", fun v -> p50 v Probe.Verifier_verify /. 1e3));
      ("verifier.verify_us_p99", ("us", fun v -> p99 v Probe.Verifier_verify /. 1e3));
      ( "verifier.states_per_set",
        ("states/set", fun v -> div (value v "verifier.states") (value v "verifier.sets")) );
      ("verifier.guaranteed", count_of "verifier.guaranteed");
      ("verifier.policy_dependent", count_of "verifier.policy_dependent");
      ("verifier.loop", count_of "verifier.loop");
      ("verifier.blackhole", count_of "verifier.blackhole");
      ("verifier.disconnected", count_of "verifier.disconnected");
      ("gc.minor_words_per_op", ("words/op", fun v -> v.words_per_op));
      ("trace.overhead", ("ratio", fun v -> v.overhead));
      ( "trace.self_sum_ratio",
        ("ratio", fun v -> div (ns_of (Probe.self_sum_ns v.s)) ((v.p.setup_s +. v.p.run_s) *. 1e9)) );
    ]

(* --- statistics --- *)

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Python's statistics.quantiles(xs, n=4), default 'exclusive' method. *)
let quartiles xs =
  let a = Array.of_list (List.sort compare xs) in
  let ld = Array.length a in
  if ld = 0 then (0.0, 0.0, 0.0)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

(* --- end-to-end metrics: every workload reports all of them, as
   medians over the untraced passes --- *)

let end_to_end : (string * (string * (pass list -> float))) list =
  [
    ("setup_s", ("s", fun ps -> median (List.map (fun p -> p.setup_s) ps)));
    ( "ops_per_s",
      ("1/s", fun ps -> median (List.map (fun p -> float_of_int p.ops /. p.run_s) ps)) );
    ( "heap_peak_mb",
      ( "MB",
        fun _ -> float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
      ) );
  ]

(* --- a run --- *)

type result = {
  workload : string;
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list; (* name, value, unit *)
  problems : string list;
  report : string; (* human-readable: passes, self-time table *)
  trace_json : string option; (* the last traced pass, trace-event JSON *)
}

let expected_det ~workload =
  match Json.member workload (Json.parse Expected.seed1) with
  | Json.Null -> None
  | v -> Some (List.map (fun (k, x) -> (k, Json.to_float x)) (Json.to_assoc v))

let det_mismatches ~what reference det =
  List.filter_map
    (fun (k, x) ->
      match List.assoc_opt k det with
      | Some y when y = x -> None
      | Some y -> Some (Printf.sprintf "%s: %s = %.17g, expected %.17g" what k y x)
      | None -> Some (Printf.sprintf "%s: %s missing" what k))
    reference

let one_pass w ~seed ~size ~traced =
  Gc.full_major ();
  Probe.start ~traced;
  let p = w.pass ~seed ~size ~traced in
  (p, Probe.snapshot ())

let run (w : Workloads.t) ~seed ~seconds ~trace ?(size = 1.0) ?(keep_trace = false) () =
  ignore (one_pass w ~seed ~size:(size /. 10.0) ~traced:false);
  let t0 = Probe.now_s () in
  let untraced = ref [] and traced = ref [] in
  let passes = ref 0 in
  let wanted = if trace then 2 * min_passes else min_passes in
  while !passes < wanted || Probe.now_s () -. t0 < seconds do
    let tr = trace && !passes mod 2 = 1 in
    let ps = one_pass w ~seed ~size ~traced:tr in
    if tr then
      let export = if keep_trace then Some (Probe.trace_events ~workload:w.name) else None in
      traced := (ps, export) :: !traced
    else untraced := fst ps :: !untraced;
    incr passes
  done;
  let untraced = List.rev !untraced and traced = List.rev !traced in
  let all : pass list = untraced @ List.map (fun ((p, _), _) -> p) traced in
  let first = List.hd all in
  let expected =
    if seed = 1 && size = 1.0 then
      match expected_det ~workload:w.name with
      | Some reference -> det_mismatches ~what:"seed 1" reference first.det
      | None -> []
    else []
  in
  (* self-time rows must account for the pass's wall time *)
  let unaccounted =
    List.filter_map
      (fun (((p : pass), s), _) ->
        let wall = p.setup_s +. p.run_s in
        let sum = float_of_int (Probe.self_sum_ns s) /. 1e9 in
        if Float.abs (sum -. wall) > 0.05 *. wall then
          Some (Printf.sprintf "self-time rows sum to %.3f s of a %.3f s pass" sum wall)
        else None)
      traced
  in
  let problems =
    List.sort_uniq compare
      (List.concat_map
         (fun (p : pass) ->
           p.problems @ det_mismatches ~what:"pass differs" first.det p.det)
         all
      @ expected @ unaccounted)
  in
  let med f ps = median (List.map f ps) in
  let untraced_run_s = med (fun p -> p.run_s) untraced in
  let traced_run_s = med (fun ((p, _), _) -> p.run_s) traced in
  let metrics =
    if not trace then List.map (fun (name, (unit, f)) -> (name, f untraced, unit)) end_to_end
    else
      let words_per_op = med (fun p -> div p.minor_words (float_of_int p.ops)) untraced in
      let overhead = div traced_run_s untraced_run_s -. 1.0 in
      let views =
        List.map
          (fun ((p, s), _) -> { p; s; untraced_run_s; words_per_op; overhead })
          traced
      in
      List.map
        (fun (name, (unit, f)) -> (name, median (List.map f views), unit))
        per_layer
  in
  let report =
    let b = Buffer.create 1024 in
    Printf.bprintf b "%s: %d untraced and %d traced passes of %d %ss each\n" w.name
      (List.length untraced) (List.length traced) first.ops w.op;
    List.iter
      (fun (p : pass) ->
        Printf.bprintf b "  pass: setup %.6f s, run %.6f s, %.6g %ss/s\n" p.setup_s p.run_s
          (float_of_int p.ops /. p.run_s) w.op)
      untraced;
    (match List.rev traced with
     | ((p, s), _) :: _ ->
       Printf.bprintf b "self time of the last traced pass (wall %.3f s):\n%s" (p.setup_s +. p.run_s)
         (Probe.render_self_table s ~wall_s:(p.setup_s +. p.run_s));
       Printf.bprintf b "tracing overhead: traced run wall / untraced run wall = %.3f\n"
         (div traced_run_s untraced_run_s)
     | [] -> ());
    List.iter (fun (k, v, u) -> Printf.bprintf b "  %-28s %16.6g %s\n" k v u) metrics;
    List.iter (fun msg -> Printf.bprintf b "CHECK FAILED %s\n" msg) problems;
    Buffer.contents b
  in
  {
    workload = w.name;
    correct = problems = [];
    attempted = List.fold_left (fun acc (p : pass) -> acc + p.ops) 0 all;
    failed = List.fold_left (fun acc (p : pass) -> acc + p.failed) 0 all;
    metrics;
    problems;
    report;
    trace_json = (match List.rev traced with (_, t) :: _ -> t | [] -> None);
  }

(* The result line: the last line a one-workload run prints. *)
let result_json r =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool r.correct);
         ("attempted", Json.Num (float_of_int r.attempted));
         ("failed", Json.Num (float_of_int r.failed));
         ( "metrics",
           Json.Obj
             (List.map
                (fun (k, v, u) -> (k, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ]))
                r.metrics) );
       ])

(* Deterministic values of one full-size pass, as expected/seed1.json
   holds them. *)
let fingerprint (w : Workloads.t) ~seed =
  let p, _ = one_pass w ~seed ~size:1.0 ~traced:false in
  (w.name, Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) p.det))

(* Benchmark harness.

   Three modes:
   - no arguments: bechamel micro-benchmarks of the compute kernels
     (bignum arithmetic, route-ID encoding, the per-packet forwarding
     decision, the exact Markov analysis, the event engine) as a text
     table, then regeneration of every table and figure of the paper
     (quick profile by default; KAR_PROFILE=paper for the published
     durations);
   - [--json FILE]: machine-readable run — micro-benchmarks plus an
     end-to-end netsim throughput probe and a steady-state allocation
     counter, written to FILE as one flat JSON object (the perf
     trajectory's data points; BENCH.json at the repo root is the
     committed baseline);
   - [--check BASELINE]: after measuring, compare against a previous
     [--json] output and exit non-zero if any kernel regressed more than
     [regression_factor].  Under a short [--quota], a bechamel kernel
     over that factor is measured again at the default quota before it
     fails the check ([confirm_kernels]).

   [--quota SECONDS] shrinks the per-test bechamel quota (CI smoke runs use
   a small one). *)

open Bechamel
open Toolkit

module Z = Bignum.Z

let regression_factor = 3.0

(* --- inputs shared by the micro-benches --- *)

let big_a = Z.of_string "123456789012345678901234567890123456789012345678901234567890"
let big_b = Z.of_string "987654321098765432109876543210987654321"

let residues_full =
  (Kar.Controller.scenario_plan Topo.Nets.net15 Kar.Controller.Full).Kar.Route.residues

let plan_full = Kar.Controller.scenario_plan Topo.Nets.net15 Kar.Controller.Full

let net15 = Topo.Nets.net15
let rnp = Topo.Nets.rnp28

let sw13_degree =
  let g = net15.Topo.Nets.graph in
  Topo.Graph.degree g (Topo.Graph.node_of_label g 13)

let sw13_live = (1 lsl sw13_degree) - 1

(* SW13's reader, built once as Karnet builds it at install. *)
let sw13_port = Kar.Route.cached_port_flat plan_full ~switch_id:13

(* One NIP decision at SW13 with every port live, as Karnet makes it. *)
let forward_nip rng buf =
  let c = sw13_port buf in
  let choice =
    Kar.Policy.choose Kar.Policy.Not_input_port ~computed:c ~in_port:0
      ~deflected:false ~degree:sw13_degree ~live:sw13_live
  in
  if choice < 0 then lnot choice
  else if choice > 0 then Kar.Policy.pick rng choice
  else -1

let fail_links = List.map (fun fc -> fc.Topo.Nets.link) net15.Topo.Nets.failures

let tests =
  [
    (* bignum kernels *)
    Test.make ~name:"bignum/mul-200bit" (Staged.stage (fun () -> Z.mul big_a big_b));
    Test.make ~name:"bignum/divmod-200bit" (Staged.stage (fun () -> Z.divmod big_a big_b));
    Test.make ~name:"bignum/to_string" (Staged.stage (fun () -> Z.to_string big_a));
    (* the remainder-only small-modulus kernel vs the full division it
       replaced on the data plane *)
    Test.make ~name:"bignum/rem_int-200bit"
      (Staged.stage (fun () -> Z.rem_int big_a 1009));
    Test.make ~name:"bignum/erem-200bit-reference"
      (Staged.stage
         (let m = Z.of_int 1009 in
          fun () -> Z.to_int_exn (Z.erem big_a m)));
    (* RNS encoding: the route-ID fold over net15's 10 full-protection
       residues *)
    Test.make ~name:"rns/encode-crt-10sw"
      (Staged.stage (fun () -> Rns.encode residues_full));
    Test.make ~name:"rns/port (data plane op)"
      (Staged.stage (fun () -> Rns.port plan_full.Kar.Route.route_id 13));
    (* exactly the seed implementation of Rns.port, [Z.of_int] included *)
    Test.make ~name:"rns/port-erem-reference"
      (Staged.stage (fun () ->
           Z.to_int_exn (Z.erem plan_full.Kar.Route.route_id (Z.of_int 13))));
    (* forwarding decision (per-packet cost of a KAR switch): the
       zero-allocation fast path Karnet actually runs — residue-cache
       lookup on the flat packet image + packed-int choice *)
    Test.make ~name:"kar/forward-nip"
      (Staged.stage
         (let rng = Util.Prng.of_int 9 in
          let buf = Wire.Flat.create () in
          Wire.Flat.stamp buf ~uid:7 ~src:1 ~dst:5 ~size_bytes:512
            ~route_id:plan_full.Kar.Route.route_id;
          fun () -> forward_nip rng buf));
    (* flat wire image: stamping a pooled buffer and the two data-plane
       reads that replace record access on the hot path *)
    Test.make ~name:"wire/flat-stamp"
      (Staged.stage
         (let buf = Wire.Flat.create () in
          let route_id = plan_full.Kar.Route.route_id in
          fun () ->
            Wire.Flat.stamp buf ~uid:7 ~src:1 ~dst:5 ~size_bytes:512 ~route_id));
    Test.make ~name:"wire/flat-rem-route-id"
      (Staged.stage
         (let buf = Wire.Flat.create () in
          Wire.Flat.stamp buf ~uid:7 ~src:1 ~dst:5 ~size_bytes:512
            ~route_id:plan_full.Kar.Route.route_id;
          fun () -> Wire.Flat.rem_route_id buf 13));
    Test.make ~name:"wire/flat-cached-port"
      (Staged.stage
         (let buf = Wire.Flat.create () in
          Wire.Flat.stamp buf ~uid:7 ~src:1 ~dst:5 ~size_bytes:512
            ~route_id:plan_full.Kar.Route.route_id;
          fun () -> sw13_port buf));
    (* flight recorder: per-event cost while tracing is on (the off case
       records nothing at all) *)
    Test.make ~name:"trace/record"
      (Staged.stage
         (let r = Trace.Recorder.create ~capacity:4096 () in
          fun () ->
            Trace.Recorder.record r ~vtime:1.0 ~uid:1 ~switch:13 ~in_port:0
              ~out_port:2 ~ttl:63 Trace.Event.Forward));
    Test.make ~name:"trace/jsonl-roundtrip"
      (Staged.stage
         (let e : Trace.Event.t =
            {
              seq = 0;
              vtime = 0.00014096;
              uid = 1;
              switch = 13;
              in_port = 0;
              out_port = 2;
              ttl = 63;
              action = Trace.Event.Deflect "nip";
            }
          in
          fun () -> Trace.Event.of_jsonl (Trace.Event.to_jsonl e)));
    (* binary trace sink: per-record append cost into the arena, and the
       full encode/decode cycle for one event *)
    Test.make ~name:"trace/binary-record"
      (Staged.stage
         (let w = Trace.Binary.writer ~capacity:(1 lsl 20) () in
          let e : Trace.Event.t =
            {
              seq = 1;
              vtime = 0.00014096;
              uid = 1;
              switch = 13;
              in_port = 0;
              out_port = 2;
              ttl = 63;
              action = Trace.Event.Forward;
            }
          in
          fun () ->
            if Trace.Binary.length w > 1 lsl 20 then Trace.Binary.reset w;
            Trace.Binary.append w e));
    Test.make ~name:"trace/binary-roundtrip"
      (Staged.stage
         (let e : Trace.Event.t =
            {
              seq = 1;
              vtime = 0.00014096;
              uid = 1;
              switch = 13;
              in_port = 0;
              out_port = 2;
              ttl = 63;
              action = Trace.Event.Deflect "nip";
            }
          in
          fun () -> Trace.Binary.decode_string (Trace.Binary.encode_events [ e ])));
    (* exact analysis and Monte Carlo *)
    Test.make ~name:"kar/markov-net15"
      (Staged.stage (fun () ->
           Kar.Markov.analyze net15.Topo.Nets.graph ~plan:plan_full
             ~policy:Kar.Policy.Not_input_port
             ~failed:[ List.nth fail_links 1 ]
             ~src:net15.Topo.Nets.ingress ~dst:net15.Topo.Nets.egress));
    Test.make ~name:"kar/walk-1000-trials"
      (Staged.stage (fun () ->
           Kar.Walk.run net15.Topo.Nets.graph ~plan:plan_full
             ~policy:Kar.Policy.Not_input_port
             ~failed:[ List.nth fail_links 1 ]
             ~src:net15.Topo.Nets.ingress ~dst:net15.Topo.Nets.egress
             ~trials:1000 ~seed:4));
    (* route planning *)
    Test.make ~name:"kar/plan-net15-full"
      (Staged.stage (fun () -> Kar.Controller.scenario_plan net15 Kar.Controller.Full));
    Test.make ~name:"kar/plan-rnp-partial"
      (Staged.stage (fun () -> Kar.Controller.scenario_plan rnp Kar.Controller.Partial));
    (* the plan server's planner on its 32-switch testbed: one partial
       [protected_route] per run, cycling through 64 fixed ordered pairs,
       so the estimate is the mean over the set (the destination trees are
       built in the first pass, as a running server has them) *)
    Test.make ~name:"kar/plan-gen32-partial"
      (Staged.stage
         (let g = Experiments.Service.testbed ~n_core:32 () in
          let edges = Array.of_list (Topo.Graph.edge_nodes g) in
          let n = Array.length edges in
          let pairs =
            Array.init 64 (fun i ->
                (edges.(i * 7 mod n), edges.((i * 7 + 1 + (i mod (n - 1))) mod n)))
          in
          let next = ref 0 in
          fun () ->
            let src, dst = pairs.(!next land 63) in
            incr next;
            Kar.Controller.protected_route g ~src ~dst ~level:Kar.Controller.Partial));
    (* event engine throughput *)
    Test.make ~name:"netsim/engine-1000-events"
      (Staged.stage (fun () ->
           let e = Netsim.Engine.create () in
           for i = 1 to 1000 do
             ignore (Netsim.Engine.schedule_at e (float_of_int i) (fun () -> ()))
           done;
           Netsim.Engine.run e));
    (* shortest path on the RNP graph *)
    Test.make ~name:"topo/bfs-rnp"
      (Staged.stage (fun () ->
           Topo.Paths.bfs rnp.Topo.Nets.graph rnp.Topo.Nets.ingress));
    (* metrics registry: the two hot-path update kernels (a handful of ns,
       zero minor words) and the cost of serialising a netsim-sized schema
       to one JSONL snapshot line (paid only at snapshot intervals) *)
    Test.make ~name:"obs/counter-incr"
      (Staged.stage
         (let r = Kar_obs.Registry.create () in
          let c = Kar_obs.Registry.counter r "bench/c" in
          fun () -> Kar_obs.Registry.incr c));
    Test.make ~name:"obs/histogram-observe"
      (Staged.stage
         (let r = Kar_obs.Registry.create () in
          let h = Kar_obs.Registry.histogram r "bench/h-ns" in
          let i = ref 0 in
          fun () ->
            i := (!i + 7919) land 0xFFFFF;
            Kar_obs.Registry.observe h !i));
    Test.make ~name:"obs/snapshot-line"
      (Staged.stage
         (let r = Kar_obs.Registry.create () in
          let engine = Netsim.Engine.create () in
          let net = Netsim.Net.create ~graph:net15.Topo.Nets.graph ~engine ~registry:r () in
          ignore net;
          let h = Kar_obs.Registry.histogram r "bench/lat-ns" in
          for i = 1 to 1000 do Kar_obs.Registry.observe h (i * 997) done;
          fun () -> Kar_obs.Export.snapshot_line ~t:1.0 r))
  ]

(* ns/run of each of [tests], bechamel giving each [quota] seconds; sorted
   by name. *)
let run_benchmarks ~quota tests =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:(Some 1000) ()
  in
  let to_rows test =
    let results = Benchmark.all cfg instances test in
    let analysis = Analyze.all ols Instance.monotonic_clock results in
    Hashtbl.fold
      (fun name ols_result acc ->
        let ns =
          match Analyze.OLS.estimates ols_result with
          | Some (est :: _) -> Some est
          | Some [] | None -> None
        in
        (name, ns) :: acc)
      analysis []
  in
  List.concat_map (fun test -> to_rows test) tests |> List.sort Stdlib.compare

let print_benchmarks rows =
  print_endline "=== Micro-benchmarks (ns/run, OLS on monotonic clock) ===";
  print_string
    (Util.Texttab.render ~header:[ "kernel"; "ns/run" ]
       (List.map
          (fun (n, v) ->
            [ n;
              (match v with
               | Some est -> Printf.sprintf "%12.1f" est
               | None -> "n/a") ])
          rows));
  print_newline ()

(* --- end-to-end netsim throughput probe ---

   A fixed workload (net15, full protection, NIP, residue cache on, no
   failures) pushed through the simulator; the score is wall-clock packets
   per second, the whole-stack number the kernel improvements must show up
   in. *)

let netsim_packets_per_sec ?(metrics = false) ~packets () =
  let sc = Topo.Nets.net15 in
  let g = sc.Topo.Nets.graph in
  let engine = Netsim.Engine.create () in
  let net = Netsim.Net.create ~graph:g ~engine () in
  (* [metrics]: the full --metrics export path on top of the always-on
     registry counters — a self-chaining snapshot event serialising the
     whole registry to JSONL 64 times over the run *)
  if metrics then begin
    let sink = Buffer.create 65536 in
    let every = float_of_int packets *. 2e-5 /. 64.0 in
    let reg = Netsim.Net.registry net in
    let rec snap () =
      Buffer.add_string sink
        (Kar_obs.Export.snapshot_line ~t:(Netsim.Engine.now engine) reg);
      Buffer.add_char sink '\n';
      if Netsim.Engine.pending engine > 0 then
        ignore (Netsim.Engine.schedule_in engine every snap)
    in
    ignore (Netsim.Engine.schedule_in engine every snap)
  end;
  let plan = Kar.Controller.scenario_plan sc Kar.Controller.Full in
  Netsim.Karnet.install_switches ~plan net ~policy:Kar.Policy.Not_input_port
    ~seed:1;
  let cache = Kar.Controller.create_cache g in
  List.iter
    (fun v ->
      Netsim.Karnet.install_edge net v
        ~reencode:(fun (p : Netsim.Packet.t) ->
          Kar.Controller.reencode cache ~at:v ~dst:(Netsim.Packet.dst p))
        ~receive:(fun _ _ -> ())
        ())
    (Topo.Graph.edge_nodes g);
  (* Injections self-schedule (each one books the next) instead of being
     queued upfront: the event heap stays a few entries deep rather than
     [packets] deep, so the probe measures forwarding, not heap sifting
     through a mountain of pending injections.  Packets come from the
     net's buffer pool and return to it at delivery — zero minor words per
     packet once the pool is warm. *)
  let rec inject_at i () =
    let packet =
      Netsim.Net.alloc net ~src:sc.Topo.Nets.ingress ~dst:sc.Topo.Nets.egress
        ~size_bytes:512 ~route_id:plan.Kar.Route.route_id Netsim.Packet.Raw
    in
    Netsim.Net.inject net ~at:sc.Topo.Nets.ingress packet;
    if i + 1 < packets then
      ignore
        (Netsim.Engine.schedule_at engine
           (float_of_int (i + 1) *. 2e-5)
           (inject_at (i + 1)))
  in
  if packets > 0 then ignore (Netsim.Engine.schedule_at engine 0.0 (inject_at 0));
  let t0 = Unix.gettimeofday () in
  Netsim.Engine.run engine;
  let wall = Unix.gettimeofday () -. t0 in
  let s = Netsim.Net.stats net in
  if s.Netsim.Net.delivered <> packets then begin
    Printf.eprintf "netsim probe: %d/%d delivered\n%!" s.Netsim.Net.delivered
      packets;
    exit 1
  end;
  float_of_int packets /. wall

(* Minor-heap words per steady-state simulated packet, measured directly:
   pool acquire, stamp of the flat wire image, four hop decisions reading
   the route-ID limbs straight from the buffer, release back to the pool.
   The whole point of the flat path is that this is 0.0 once the pool is
   warm (the engine's event bookkeeping is harness cost, not packet
   cost, and is excluded here; the pps probe covers the full stack). *)
let forward_minor_words_per_packet ~iters =
  let rng = Util.Prng.of_int 9 in
  let route_id = plan_full.Kar.Route.route_id in
  let pool = Netsim.Packet.Pool.create () in
  let born = Sys.opaque_identity 0.0 in
  (* warm: first acquire creates the packet and may grow the free list *)
  Netsim.Packet.Pool.release pool (Netsim.Packet.Pool.acquire pool);
  let w0 = Gc.minor_words () in
  for i = 1 to iters do
    let p = Netsim.Packet.Pool.acquire pool in
    Netsim.Packet.stamp p ~uid:i ~src:1 ~dst:5 ~size_bytes:512 ~route_id
      ~born Netsim.Packet.Raw;
    let buf = Netsim.Packet.bytes p in
    for hop = 0 to 3 do
      Netsim.Packet.set_hops p hop;
      ignore (Sys.opaque_identity (forward_nip rng buf))
    done;
    Netsim.Packet.Pool.release pool p
  done;
  let w1 = Gc.minor_words () in
  (w1 -. w0) /. float_of_int iters

(* --- domain-pool benchmarks ---

   [pool/map-overhead-ns] is the dispatch cost per (trivial) task on a
   4-job pool — the floor under which parallelising a sweep cannot pay.
   [pool/table2-sweep-jN-ms] times the Table 2 double-failure sweep (one
   exact chain analysis per connected link pair, ~30 us each) on pools of
   1/2/4/8 jobs; [pool/table2-speedup-j4] is the j1/j4 ratio — the number
   the CI gate watches on multicore hosts.  [pool/cores] records the
   host's recommended domain count so the gate can tell "parallel path
   broken" apart from "host has no cores to parallelise over". *)

let wall f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

let pool_map_overhead_ns () =
  let p = Util.Pool.create ~jobs:4 in
  let arr = Array.init 512 (fun i -> i) in
  let one () = ignore (Util.Pool.map p arr ~f:(fun ~idx:_ x -> x)) in
  one () (* warm: domains parked on the condition variable *);
  let reps = 50 in
  let s = wall (fun () -> for _ = 1 to reps do one () done) in
  Util.Pool.shutdown p;
  s /. float_of_int (reps * Array.length arr) *. 1e9

let table2_sweep_ms ~jobs =
  let p = Util.Pool.create ~jobs in
  let one () = ignore (Experiments.Table2.measure ~pool:p ()) in
  one () (* warm *);
  let reps = 25 in
  let s = wall (fun () -> for _ = 1 to reps do one () done) in
  Util.Pool.shutdown p;
  s /. float_of_int reps *. 1e3

let pool_entries () =
  let overhead = pool_map_overhead_ns () in
  let j1 = table2_sweep_ms ~jobs:1 in
  let j2 = table2_sweep_ms ~jobs:2 in
  let j4 = table2_sweep_ms ~jobs:4 in
  let j8 = table2_sweep_ms ~jobs:8 in
  [
    ("pool/cores", float_of_int (Domain.recommended_domain_count ()));
    ("pool/map-overhead-ns", overhead);
    ("pool/table2-sweep-j1-ms", j1);
    ("pool/table2-sweep-j2-ms", j2);
    ("pool/table2-sweep-j4-ms", j4);
    ("pool/table2-sweep-j8-ms", j8);
    ("pool/table2-speedup-j4", j1 /. j4);
  ]

(* --- sharded-simulator benchmarks ---

   [netsim/engine-sharded-rN-ms] is wall-clock for one fixed coarse-grained
   workload — random-walk traffic on an 8x8 torus whose 2 ms links make the
   lookahead (and so the epoch) wide enough that each region executes many
   events between barriers — simulated with N regions;
   [netsim/engine-serial-ms] is the same workload on the historical
   single-engine path.  Two derived gauges feed the core-count-aware gate:
   [netsim/sharded-speedup-r4] (serial / r4, must reach 2x on a >= 4-core
   host) and [netsim/sharded-r1-overhead] (r1 / serial, the price of the
   partitioned structure when there is nothing to parallelise — healthy is
   ~1.0, gated at 1.05).  [topo/cut-edges-ratio] records the partition
   quality (boundary links / total links) of the r4 cut, a deterministic
   function of the partitioner. *)

let sharded_workload_graph () =
  let w = 8 and h = 8 in
  let b = Topo.Graph.Builder.create () in
  let nodes = Array.init (w * h) (fun i -> Topo.Graph.Builder.add_node b (i + 1)) in
  for y = 0 to h - 1 do
    for x = 0 to w - 1 do
      let v = nodes.((y * w) + x) in
      ignore
        (Topo.Graph.Builder.add_link b ~delay_s:2e-3 v
           nodes.((y * w) + ((x + 1) mod w)));
      ignore
        (Topo.Graph.Builder.add_link b ~delay_s:2e-3 v
           nodes.((((y + 1) mod h) * w) + x))
    done
  done;
  Topo.Graph.Builder.finish b

(* ~0 regions selects the serial engine.  Packets random-walk [max_hops]
   hops and die; ports are spread by uid so the torus loads evenly. *)
let sharded_workload_s ~regions =
  let g = sharded_workload_graph () in
  let net =
    if regions = 0 then
      Netsim.Net.create ~graph:g ~engine:(Netsim.Engine.create ()) ()
    else
      Netsim.Net.create_partitioned ~graph:g
        ~partition:(Topo.Partition.make g ~regions)
        ()
  in
  let max_hops = 200 in
  Topo.Graph.iter_nodes g ~f:(fun v ->
      Netsim.Net.set_node_handler net v (fun net v (p : Netsim.Packet.t) ~in_port:_ ->
          let hops = Netsim.Packet.hops p + 1 in
          Netsim.Packet.set_hops p hops;
          if hops >= max_hops then Netsim.Net.free net p
          else
            let port =
              (Netsim.Packet.uid p + hops) mod Topo.Graph.degree g v
            in
            Netsim.Net.send net ~from_node:v ~port p));
  Topo.Graph.iter_nodes g ~f:(fun v ->
      Netsim.Net.schedule_at_node net v ~at:1e-6 (fun () ->
          for _ = 1 to 10 do
            let p =
              Netsim.Net.alloc net ~src:v ~dst:v ~size_bytes:512
                ~route_id:Bignum.Z.one Netsim.Packet.Raw
            in
            Netsim.Net.inject net ~at:v p
          done));
  wall (fun () -> Netsim.Net.run_until net 0.45)

let sharded_entries () =
  (* Round-robin over the configurations (rather than best-of-3 per
     config back to back) so slow drift in machine state — GC heap
     growth, thermal throttle — lands on every config equally; the
     r1-overhead gate watches a 5% band, which sequential measurement
     visibly biases. *)
  let configs = [| 0; 1; 2; 4 |] in
  let best = Array.map (fun _ -> infinity) configs in
  for _round = 1 to 3 do
    Array.iteri
      (fun i regions ->
        let s = sharded_workload_s ~regions in
        if s < best.(i) then best.(i) <- s)
      configs
  done;
  let serial = best.(0) *. 1e3 in
  let r1 = best.(1) *. 1e3 in
  let r2 = best.(2) *. 1e3 in
  let r4 = best.(3) *. 1e3 in
  let cut =
    (Topo.Partition.make (sharded_workload_graph ()) ~regions:4)
      .Topo.Partition.cut_ratio
  in
  [
    ("netsim/engine-serial-ms", serial);
    ("netsim/engine-sharded-r1-ms", r1);
    ("netsim/engine-sharded-r2-ms", r2);
    ("netsim/engine-sharded-r4-ms", r4);
    ("netsim/sharded-speedup-r4", serial /. r4);
    ("netsim/sharded-r1-overhead", r1 /. serial);
    ("topo/cut-edges-ratio", cut);
  ]

(* --- serving-layer benchmarks ---

   The svc gauges come in two kinds.  Wall-clock: [svc/requests-per-sec-jN]
   is how fast the plan server chews through a fixed 4k-request Zipf
   workload with batch computation on a private pool of N jobs (j1 gated,
   higher is better; j4 a machine-shape observation), and
   [svc/speedup-j4] their ratio (batches are small — mean ~2 keys — so
   this is a sanity ratio, not the pool's table2-style scaling).  Virtual,
   machine-independent: [svc/p99-virtual-ms] and [svc/hit-ratio] are
   deterministic functions of the workload and the server model, so any
   movement is a code change, not noise. *)

let svc_entries () =
  let requests = 4_000 in
  let g, reqs = Experiments.Service.bench_workload ~requests in
  let serve_rps ~jobs =
    let p = Util.Pool.create ~jobs in
    let one () = Experiments.Service.bench_serve ~pool:p g reqs in
    let report = one () (* warm *) in
    let reps = 3 in
    let s = wall (fun () -> for _ = 1 to reps do ignore (one ()) done) in
    Util.Pool.shutdown p;
    (float_of_int (reps * requests) /. s, report)
  in
  let j1, report = serve_rps ~jobs:1 in
  let j4, _ = serve_rps ~jobs:4 in
  [
    ("svc/requests-per-sec-j1", j1);
    ("svc/requests-per-sec-j4", j4);
    ("svc/speedup-j4", j4 /. j1);
    ("svc/p99-virtual-ms", report.Kar_service.Server.p99 *. 1e3);
    ("svc/hit-ratio", report.Kar_service.Server.hit_ratio);
  ]

(* --- resilience-verifier benchmarks ---

   [verify/failure-sets-per-sec-jN] sweeps one prepared net15 instance
   (ingress->egress, full protection, NIP) over every failure set of up to
   2 core links on a private pool of N jobs.  The j1 number is the
   verifier's serial throughput (gated, higher is better); j4 is a
   machine-shape observation. *)

let verify_entries () =
  let sc = Topo.Nets.net15 in
  let g = sc.Topo.Nets.graph in
  let inst =
    Experiments.Verify.instance_for g ~src:sc.Topo.Nets.ingress
      ~dst:sc.Topo.Nets.egress ~policy:Kar.Policy.Not_input_port
  in
  let links = Experiments.Verify.core_links g in
  let sets =
    Array.of_list
      (Experiments.Verify.failure_sets links ~k:1
      @ Experiments.Verify.failure_sets links ~k:2)
  in
  let sweep_rate ~jobs =
    let p = Util.Pool.create ~jobs in
    let one () =
      ignore
        (Util.Pool.map p sets ~f:(fun ~idx:_ failed ->
             Kar_verify.Verifier.verify inst ~failed))
    in
    one () (* warm *);
    let reps = 5 in
    let s = wall (fun () -> for _ = 1 to reps do one () done) in
    Util.Pool.shutdown p;
    float_of_int (reps * Array.length sets) /. s
  in
  let j1 = sweep_rate ~jobs:1 in
  let j4 = sweep_rate ~jobs:4 in
  [
    ("verify/failure-sets-per-sec-j1", j1);
    ("verify/failure-sets-per-sec-j4", j4);
  ]

(* --- scenario-engine and churn gauges ---

   [scenario/gen-*-ms] time the three generator models compiling a 3 s
   schedule against rnp28 (best of 3 wall-clocks, generic 3x gate); the
   adversarial one is the interesting number — every decision round it
   replans the tracked pairs on the surviving topology.  The churn/*
   gauges are deterministic functions of (topology, canonical spec,
   seed): CBR delivery ratios under churn for KAR and for fast failover,
   plus their gap under the adversarial schedule — the headline claim
   that the adversary hurts the baselines more than KAR.  Any movement
   there is a behaviour change, not machine noise, so they are gated on
   absolute drops. *)

let scenario_entries () =
  let spec_of sch =
    match Kar_scenario.Spec.parse (Experiments.Churn.spec_for sch) with
    | Ok spec -> spec
    | Error e -> failwith e
  in
  let gen_ms sch =
    let g = rnp.Topo.Nets.graph in
    let spec = spec_of sch in
    let best = ref infinity in
    for _ = 1 to 3 do
      let s =
        wall (fun () ->
            match
              Kar_scenario.Gen.generate g ~horizon:3.0
                ~pairs:[ (rnp.Topo.Nets.ingress, rnp.Topo.Nets.egress) ]
                spec
            with
            | Ok _ -> ()
            | Error e -> failwith e)
      in
      if s < !best then best := s
    done;
    !best *. 1e3
  in
  let delivery sc sch technique =
    let events = Experiments.Churn.events_for sc ~horizon:3.0 sch in
    (Experiments.Churn.run_data sc ~events ~technique ~rate_pps:500
       ~duration_s:3.0 ~seed:42 ())
      .Experiments.Churn.delivery_ratio
  in
  let kar_adv = delivery rnp `Adversarial Experiments.Churn.Kar in
  let ff_adv = delivery rnp `Adversarial Experiments.Churn.Fast_failover in
  [
    ("scenario/gen-flap-ms", gen_ms `Flap);
    ("scenario/gen-regional-ms", gen_ms `Regional);
    ("scenario/gen-adversarial-ms", gen_ms `Adversarial);
    ("churn/net15-regional-kar-delivery",
     delivery net15 `Regional Experiments.Churn.Kar);
    ("churn/rnp28-adversarial-kar-delivery", kar_adv);
    ("churn/rnp28-adversarial-ff-delivery", ff_adv);
    ("churn/adversarial-kar-ff-gap", kar_adv -. ff_adv);
  ]

(* --- metrics-overhead gauges ---

   [obs/metrics-pps-ratio] is the whole-stack cost of observability: the
   netsim throughput probe with the full --metrics export path (periodic
   JSONL snapshots of the whole registry) over the same probe without it.
   Both sides take the best of 3 runs, which filters scheduler noise; the
   gate is an absolute floor of 0.95 (snapshots may cost at most 5% of
   packet throughput).  The always-on registry counters are part of both
   sides — their cost is bounded separately by the bechamel kernels
   [obs/counter-incr]/[obs/histogram-observe] and by the unchanged
   [netsim/packets-per-sec] baseline. *)

let obs_entries ~packets =
  let best_of ~metrics =
    let best = ref 0.0 in
    for _ = 1 to 3 do
      let pps = netsim_packets_per_sec ~metrics ~packets () in
      if pps > !best then best := pps
    done;
    !best
  in
  let off = best_of ~metrics:false in
  let on = best_of ~metrics:true in
  [ ("obs/metrics-pps-ratio", on /. off) ]

(* --- machine-readable output (a flat {"key": number} JSON object) --- *)

(* One key per line with %.6g values, the layout of the committed
   BENCH.json. *)
let write_json file entries =
  let oc = open_out file in
  output_string oc "{\n";
  List.iteri
    (fun i (k, v) ->
      Printf.fprintf oc "  \"%s\": %.6g%s\n" (E2e.Json.escape k) v
        (if i = List.length entries - 1 then "" else ","))
    entries;
  output_string oc "}\n";
  close_out oc

let parse_json file =
  List.map
    (fun (k, v) -> (k, E2e.Json.to_float v))
    (E2e.Json.to_assoc (E2e.Json.read_file file))

let higher_is_better key =
  key = "netsim/packets-per-sec" || key = "verify/failure-sets-per-sec-j1"
  || key = "svc/requests-per-sec-j1"

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Gates that only mean something on a host with >= 4 cores.  A narrower
   host cannot measure them, so the check reports the gate as unmeasured
   instead of passing it silently; the exit status is unaffected. *)
let multicore_gate key fresh ~fails ~why =
  let cores =
    match List.assoc_opt "pool/cores" fresh with
    | Some c -> c
    | None -> float_of_int (Domain.recommended_domain_count ())
  in
  if cores >= 4.0 then if fails then Some (why cores) else None
  else begin
    Printf.printf "UNMEASURED %s (needs >= 4 cores, host has %.0f)\n" key cores;
    None
  end

(* Keys whose scale is not a kernel latency: excluded from the regression
   gate (throughput is checked in the other direction; the allocation
   counter is asserted exactly by the test suite; pool wall-clocks are
   machine-shape numbers checked via the speedup ratio instead). *)
let check_entry (key, baseline) fresh =
  match List.assoc_opt key fresh with
  | None -> None (* kernel renamed/removed: not a regression *)
  | Some now ->
    if key = "gc/forward-minor-words-per-packet" then None
    else if key = "pool/table2-speedup-j4" then
      (* The parallel-path gate: on a host with >= 4 cores, the sweep must
         still actually go parallel.  The floor is 2x (not the ~3.5x a
         healthy pool shows) so CI noise can't trip it; a serialised pool
         measures ~1x and fails. *)
      multicore_gate key fresh ~fails:(now < 2.0) ~why:(fun cores ->
          Printf.sprintf
            "%s: %.2fx (< 2x on a %.0f-core host; parallel sweep path no \
             longer scales)"
            key now cores)
    else if starts_with ~prefix:"pool/" key then None
    else if key = "netsim/sharded-speedup-r4" then
      (* The sharded-path gate: on a host with >= 4 cores the 4-region
         simulation of the coarse-grained workload must actually run in
         parallel.  2x is the floor (a healthy run shows ~3x); a
         serialised barrier loop measures ~1x and fails. *)
      multicore_gate key fresh ~fails:(now < 2.0) ~why:(fun cores ->
          Printf.sprintf
            "%s: %.2fx (< 2x on a %.0f-core host; sharded simulation no \
             longer scales)"
            key now cores)
    else if key = "netsim/sharded-r1-overhead" then
      (* A 1-region partition is structurally the serial simulator; its
         wall-clock may cost at most 5% over the single-engine path.
         Enforced alongside the speedup gate (>= 4 cores), where the
         best-of-3 runs are quiet enough for a 5% band. *)
      multicore_gate key fresh ~fails:(now > 1.05) ~why:(fun cores ->
          Printf.sprintf
            "%s: %.3fx on a %.0f-core host (single-region sharding costs \
             more than 5%% over the serial engine)"
            key now cores)
    else if
      key = "netsim/engine-serial-ms"
      || starts_with ~prefix:"netsim/engine-sharded-" key
    then None (* machine-shape wall-clocks behind the two gauges above *)
    else if key = "topo/cut-edges-ratio" then
      (* Deterministic in the partitioner and the fixed bench torus: a
         jump means partition quality changed, not machine noise. *)
      if now > baseline +. 0.10 then
        Some
          (Printf.sprintf
             "%s: %.3f -> %.3f (partition cut grew by more than 0.10)" key
             baseline now)
      else None
    else if key = "verify/failure-sets-per-sec-j4" then
      (* machine-shape wall-clock (depends on core count); the serial j1
         throughput is the gated number *)
      None
    else if key = "svc/speedup-j4" then
      (* Sanity ratio, not a scaling target: service batches average ~2
         keys, so j4 buys little — but on a >= 4-core host it must not be
         drastically slower than serial (that would mean the private-pool
         dispatch path went pathological, e.g. a lock convoy per batch). *)
      multicore_gate key fresh ~fails:(now < 0.5) ~why:(fun cores ->
          Printf.sprintf
            "%s: %.2fx (< 0.5x on a %.0f-core host; parallel batch dispatch \
             is pathologically slow)"
            key now cores)
    else if key = "obs/metrics-pps-ratio" then
      (* Absolute floor, not baseline-relative: the metrics export path
         must never cost more than 5% of netsim packet throughput. *)
      if now < 0.95 then
        Some
          (Printf.sprintf
             "%s: %.3f (metrics-on netsim throughput fell below 95%% of \
              metrics-off)"
             key now)
      else None
    else if key = "churn/adversarial-kar-ff-gap" then
      (* Sign-and-margin floor, not baseline-relative: KAR must keep
         out-delivering fast failover under the canonical adversarial
         schedule.  A collapse to ~0 means the adversary no longer tells
         the techniques apart (or KAR lost its edge). *)
      if now < 0.05 then
        Some
          (Printf.sprintf
             "%s: %.3f (KAR's delivery edge over fast failover under the \
              adversarial schedule collapsed below 0.05)"
             key now)
      else None
    else if starts_with ~prefix:"churn/" key then
      (* Deterministic in (topology, spec, seed): an absolute delivery
         drop is a behaviour change in the scenario engine, a baseline,
         or the simulator — never machine noise. *)
      if now < baseline -. 0.10 then
        Some
          (Printf.sprintf
             "%s: %.3f -> %.3f (delivery under churn dropped by more than \
              0.10)"
             key baseline now)
      else None
    else if key = "svc/hit-ratio" then
      (* Deterministic in the workload: an absolute drop means the cache,
         the epochs, or the generator changed behaviour. *)
      if now < baseline -. 0.10 then
        Some
          (Printf.sprintf "%s: %.3f -> %.3f (hit ratio dropped by more \
                           than 0.10)" key baseline now)
      else None
    else if key = "svc/requests-per-sec-j4" then
      (* machine-shape wall-clock, like the verifier's j4; the serial j1
         throughput is the gated number *)
      None
    else if higher_is_better key then
      if baseline > 0.0 && now < baseline /. regression_factor then
        Some
          (Printf.sprintf "%s: %.6g -> %.6g (more than %.1fx slower)" key
             baseline now regression_factor)
      else None
    else if baseline > 0.0 && now > baseline *. regression_factor then
      Some
        (Printf.sprintf "%s: %.6g ns -> %.6g ns (more than %.1fx slower)" key
           baseline now regression_factor)
    else None

(* The per-kernel quota unless [--quota] says otherwise. *)
let default_quota = 0.5

(* Confirm before failing.  At a quota shorter than the default, a
   nanosecond kernel on a shared host reads one-off outliers several times
   its baseline, a different kernel in each run.  So a bechamel kernel
   that reads more than [regression_factor] over its baseline is measured
   again, alone, at the default quota; the check uses that second reading,
   and both are printed.  A real slow-down repeats and still fails. *)
let confirm_kernels ~quota baseline fresh =
  if quota >= default_quota then fresh
  else
    List.map
      (fun (key, now) ->
        match
          (List.assoc_opt key baseline, List.find_opt (fun t -> Test.name t = key) tests)
        with
        | Some base, Some test when base > 0.0 && now > base *. regression_factor ->
          let again =
            match run_benchmarks ~quota:default_quota [ test ] with
            | [ (_, Some ns) ] -> ns
            | _ -> now
          in
          Printf.printf
            "bench check: %s read %.1f ns at a %.2f s quota (%.1fx its %.1f ns \
             baseline); measured again at %.1f s: %.1f ns\n"
            key now quota (now /. base) base default_quota again;
          (key, again)
        | _ -> (key, now))
      fresh

let measure_all ~quota ~packets =
  let rows = run_benchmarks ~quota tests in
  print_benchmarks rows;
  let kernels =
    List.filter_map (fun (n, v) -> Option.map (fun est -> (n, est)) v) rows
  in
  let pps = netsim_packets_per_sec ~packets () in
  let words = forward_minor_words_per_packet ~iters:100_000 in
  Printf.printf "netsim end-to-end: %.0f packets/s\n" pps;
  Printf.printf "steady-state forward path: %.3f minor words/packet\n" words;
  let pool = pool_entries () in
  List.iter (fun (k, v) -> Printf.printf "%s: %.6g\n" k v) pool;
  let sharded = sharded_entries () in
  List.iter (fun (k, v) -> Printf.printf "%s: %.6g\n" k v) sharded;
  let svc = svc_entries () in
  List.iter (fun (k, v) -> Printf.printf "%s: %.6g\n" k v) svc;
  let verify = verify_entries () in
  List.iter (fun (k, v) -> Printf.printf "%s: %.6g\n" k v) verify;
  let scen = scenario_entries () in
  List.iter (fun (k, v) -> Printf.printf "%s: %.6g\n" k v) scen;
  let obs = obs_entries ~packets in
  List.iter (fun (k, v) -> Printf.printf "%s: %.6g\n" k v) obs;
  print_newline ();
  kernels
  @ [ ("netsim/packets-per-sec", pps);
      ("gc/forward-minor-words-per-packet", words) ]
  @ pool @ sharded @ svc @ verify @ scen @ obs

(* Every experiment in the catalogue, in its run-all order, at the profile
   the environment selects. *)
let run_experiments () =
  let profile = Experiments.Profile.from_env () in
  Printf.printf "=== Experiments (profile: %s) ===\n\n"
    profile.Experiments.Profile.name;
  List.iter
    (fun (en : Experiments.Registry.entry) ->
      print_endline (en.Experiments.Registry.run profile))
    Experiments.Registry.all

let () =
  let json_file = ref None
  and check_file = ref None
  and quota = ref default_quota in
  let rec parse = function
    | [] -> ()
    | "--json" :: file :: rest ->
      json_file := Some file;
      parse rest
    | "--check" :: file :: rest ->
      check_file := Some file;
      parse rest
    | "--quota" :: q :: rest ->
      quota := float_of_string q;
      parse rest
    | ("-j" | "--jobs") :: j :: rest ->
      Util.Pool.set_jobs (int_of_string j);
      parse rest
    | arg :: _ ->
      Printf.eprintf
        "usage: bench [--json FILE] [--check BASELINE] [--quota SECONDS] \
         [-j JOBS]\n\
         unknown argument: %s\n"
        arg;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!json_file, !check_file) with
  | None, None ->
    print_benchmarks (run_benchmarks ~quota:!quota tests);
    run_experiments ()
  | _ ->
    let results = measure_all ~quota:!quota ~packets:10_000 in
    (match !json_file with
     | Some file ->
       write_json file results;
       Printf.printf "wrote %s\n" file
     | None -> ());
    (match !check_file with
     | None -> ()
     | Some baseline_file ->
       let baseline = parse_json baseline_file in
       let results = confirm_kernels ~quota:!quota baseline results in
       let regressions =
         List.filter_map (fun kv -> check_entry kv results) baseline
       in
       (match regressions with
        | [] ->
          Printf.printf "bench check: no kernel regressed more than %.1fx vs %s\n"
            regression_factor baseline_file
        | rs ->
          List.iter (fun r -> Printf.eprintf "REGRESSION %s\n" r) rs;
          exit 1))

(* The six workloads.  Each one is composed from the libraries' public
   functions; its inputs come from the seed alone, and the libraries see
   only the generated inputs.

   A pass builds fresh state (the set-up), runs the measured phase on it,
   then checks the outputs untimed.  [size] scales the measured work (1.0
   is the benchmarked size), so a warm-up pass or the smoke test can run
   the same code on less.  Every pass of one (workload, seed, size) must
   report identical deterministic values; the harness checks that. *)

module Graph = Topo.Graph
module Net = Netsim.Net
module Engine = Netsim.Engine
module Packet = Netsim.Packet
module Karnet = Netsim.Karnet
module Registry = Kar_obs.Registry
module Event = Kar_scenario.Event
module Server = Kar_service.Server
module Workload = Kar_service.Workload
module Verifier = Kar_verify.Verifier
module Z = Bignum.Z

type pass = {
  ops : int; (* operations attempted in the measured phase *)
  failed : int; (* operations that raised instead of completing *)
  setup_s : float;
  run_s : float;
  minor_words : float; (* allocated by the measured phase *)
  det : (string * float) list;
      (* deterministic in (workload, seed, size): counts and virtual times *)
  exec : (string * float) list;
      (* counts that describe how the run executed, not what it computed *)
  problems : string list; (* failed output checks *)
}

(* Why each workload was chosen is recorded in BENCHMARK.json. *)
type t = {
  name : string;
  op : string; (* what one operation is, for the report *)
  pass : seed:int -> size:float -> traced:bool -> pass;
}

let timed ~setup ~run =
  let t0 = Probe.now_s () in
  Probe.enter Probe.Setup;
  let st = setup () in
  Probe.leave ();
  let t1 = Probe.now_s () in
  let w0 = Gc.minor_words () in
  Probe.enter Probe.Run;
  let r = run st in
  Probe.leave ();
  let w1 = Gc.minor_words () in
  let t2 = Probe.now_s () in
  (* the output checks that follow are not part of the pass's time *)
  Probe.stop ();
  (st, r, t1 -. t0, t2 -. t1, w1 -. w0)

let scaled n size = max 1 (int_of_float (Float.round (float_of_int n *. size)))

let spec s =
  match Kar_scenario.Spec.parse s with
  | Ok spec -> spec
  | Error e -> failwith ("bad scenario spec " ^ s ^ ": " ^ e)

let generate g ~horizon ?pairs s =
  match
    Probe.span Probe.Scenario_gen (fun () ->
        Kar_scenario.Gen.generate g ~horizon ?pairs (spec s))
  with
  | Ok events -> events
  | Error e -> failwith ("scenario generation failed for " ^ s ^ ": " ^ e)

(* Which pairs a workload routes decides most of its cost (path lengths,
   how many failure sets defeat a plan), so the pairs belong to the
   workload's definition rather than to its seed: they are the first [k]
   pairs, in the testbed's popularity ranking for a fixed seed, whose plan
   at [level] encodes within the route-ID budget.  The benchmark seed
   drives what should leave the cost alone: arrival times, flap phases,
   deflection draws and the verifier's sweep order. *)
let fixed_plans g ~k ~level ~plans_made =
  let ranked = Workload.pairs g ~seed:1 in
  let rec take i found acc =
    if found = k || i >= Array.length ranked then List.rev acc
    else
      let src, dst = ranked.(i) in
      incr plans_made;
      match
        Probe.span Probe.Controller_plan (fun () ->
            Kar.Controller.protected_route g ~src ~dst ~level)
      with
      | plan -> take (i + 1) (found + 1) ((src, dst, plan) :: acc)
      | exception Invalid_argument _ -> take (i + 1) found acc
  in
  take 0 0 []

let problem_if cond fmt =
  Printf.ksprintf (fun msg -> if cond then [ msg ] else []) fmt

(* ---------------------------------------------------------------------- *)
(* Data plane                                                              *)
(* ---------------------------------------------------------------------- *)

type flow = { src : Graph.node; dst : Graph.node; route_id : Z.t }

type dp_inputs = {
  graph : Graph.t;
  flows : flow array;
  plan : Kar.Route.plan; (* flow 0's plan: the one switches cache *)
  reencode : Z.t option array array;
      (* [reencode.(edge).(dst)]: precomputed and immutable, as
         Churn.run_data does, so sharded edge handlers share no mutable
         controller state *)
  events : Event.t list;
  interval : float; (* mean per-flow packet spacing, virtual seconds *)
  size_bytes : int;
  duration : float; (* virtual seconds of injection *)
  plans_made : int;
}

(* Virtual time after the last injection for in-flight packets to land:
   far above a TTL-long deflection walk plus a re-encode round trip. *)
let drain_s = 0.1

let reencode_table g dsts ~plans_made =
  let n = Graph.n_nodes g in
  let table = Array.make_matrix n n None in
  let dsts = List.sort_uniq compare dsts in
  List.iter
    (fun v ->
      List.iter
        (fun d ->
          if v <> d then begin
            incr plans_made;
            table.(v).(d) <-
              (match
                 Probe.span Probe.Controller_plan (fun () ->
                     Kar.Controller.route g ~src:v ~dst:d ~protection:[])
               with
               | plan -> Some plan.Kar.Route.route_id
               | exception Invalid_argument _ -> None)
          end)
        dsts)
    (Graph.edge_nodes g);
  table

type sim = {
  net : Net.t;
  latency : (Registry.t * Registry.histogram) option array;
      (* per destination node: each is only touched by the domain that
         owns that node's region *)
}

let prepare_sim inputs ~regions ~seed ~traced_inner =
  let g = inputs.graph in
  let net =
    if regions = 1 then Net.create ~graph:g ~engine:(Engine.create ()) ()
    else
      Net.create_partitioned ~graph:g
        ~partition:(Topo.Partition.make g ~regions)
        ()
  in
  Karnet.install_switches ~plan:inputs.plan net
    ~policy:Kar.Policy.Not_input_port ~seed;
  let latency = Array.make (Graph.n_nodes g) None in
  Array.iter
    (fun f ->
      if latency.(f.dst) = None then begin
        let r = Registry.create () in
        latency.(f.dst) <- Some (r, Registry.histogram r "vlat-ns")
      end)
    inputs.flows;
  List.iter
    (fun v ->
      let row = inputs.reencode.(v) in
      let reencode =
        if traced_inner then (fun p ->
          Probe.enter Probe.Karnet_reencode;
          let r = row.(Packet.dst p) in
          Probe.leave ();
          r)
        else fun p -> row.(Packet.dst p)
      in
      let receive =
        match latency.(v) with
        | Some (_, h) ->
          fun net p ->
            Registry.observe_s h (Engine.now (Net.engine net) -. Packet.born p)
        | None -> fun _ _ -> ()
      in
      Karnet.install_edge net v ~reencode ~receive ())
    (Graph.edge_nodes g);
  Probe.span Probe.Driver_arm (fun () ->
      Kar_scenario.Driver.arm net inputs.events);
  (* Open-loop Poisson arrivals, one seeded stream per flow: senders do
     not wait for the network, and the seed moves every arrival time. *)
  let rngs =
    Util.Prng.split_n (Util.Prng.of_int (seed lxor 0x2545F491)) (Array.length inputs.flows)
  in
  Array.iteri
    (fun i f ->
      let rng = rngs.(i) in
      let next () = Util.Prng.exponential rng ~mean:inputs.interval in
      let t = ref (next ()) in
      let rec tick () =
        if traced_inner then Probe.enter Probe.Net_inject;
        let p =
          Net.alloc net ~src:f.src ~dst:f.dst ~size_bytes:inputs.size_bytes
            ~route_id:f.route_id Packet.Raw
        in
        Net.inject net ~at:f.src p;
        if traced_inner then Probe.leave ();
        t := !t +. next ();
        if !t < inputs.duration then
          ignore (Engine.schedule_at (Net.engine net) !t tick)
      in
      if !t < inputs.duration then Net.schedule_at_node net f.src ~at:!t tick)
    inputs.flows;
  { net; latency }

let run_sim inputs sim = Net.run_until sim.net (inputs.duration +. drain_s)

let read reg name =
  match Registry.find reg name with
  | Some _ -> float_of_int (Registry.read reg name)
  | None -> 0.0

let dp_det inputs sim =
  let s = Net.stats sim.net in
  let reg = Net.registry sim.net in
  let all = Registry.create () in
  let h = Registry.histogram all "vlat-ns" in
  Array.iter
    (function Some (r, _) -> Registry.merge_into ~into:all r | None -> ())
    sim.latency;
  let q p = float_of_int (Registry.h_quantile h p) /. 1e3 in
  let f = float_of_int in
  [
    ("net.injected", f s.Net.injected);
    ("net.delivered", f s.Net.delivered);
    ("net.drop_link_down", f s.Net.dropped_link_down);
    ("net.drop_queue_full", f s.Net.dropped_queue_full);
    ("net.drop_no_route", f s.Net.dropped_no_route);
    ("net.drop_ttl", f s.Net.dropped_ttl);
    ("net.hops", f s.Net.total_switch_hops);
    ("net.deflections", f s.Net.deflections);
    ("net.reencodes", f s.Net.reencodes);
    ("net.queue_peak_bytes", read reg "netsim/queue-peak-bytes");
    ("net.vlat_p50_us", q 50.0);
    ("net.vlat_p999_us", q 99.9);
    ("net.vlat_samples", f (Registry.h_count h));
    ("scenario.events", read reg "scenario/events");
    ("controller.plans", f inputs.plans_made);
  ]

let dp_exec sim =
  let reg = Net.registry sim.net in
  [
    ("engine.events", read reg "engine/events");
    ("engine.heap_peak", read reg "engine/heap-peak");
    ("net.pool_grows", read reg "netsim/pool-grow");
    ("net.epochs", read reg "netsim/epochs");
    ( "net.domains",
      float_of_int (min (Net.n_regions sim.net) (Util.Pool.current_jobs ())) );
  ]

let dp_conservation sim =
  let s = Net.stats sim.net in
  let dropped =
    s.Net.dropped_link_down + s.Net.dropped_queue_full + s.Net.dropped_no_route
    + s.Net.dropped_ttl
  in
  problem_if
    (s.Net.injected <> s.Net.delivered + dropped)
    "injected %d <> delivered %d + dropped %d" s.Net.injected s.Net.delivered
    dropped
  @ problem_if
      (Net.pool_in_flight sim.net <> 0)
      "%d packets still in flight after the drain" (Net.pool_in_flight sim.net)

let dp_pass ~build ~regions ~check ~seed ~size ~traced =
  (* spans are single-domain: on a sharded net the per-packet callbacks run
     on two domains, so only the set-up and run spans are recorded *)
  let traced_inner = traced && regions = 1 in
  let (inputs, sim), (), setup_s, run_s, minor_words =
    timed
      ~setup:(fun () ->
        let inputs = build ~seed ~size in
        (inputs, prepare_sim inputs ~regions ~seed ~traced_inner))
      ~run:(fun (inputs, sim) -> run_sim inputs sim)
  in
  let det = dp_det inputs sim in
  let problems = dp_conservation sim @ check ~seed inputs det in
  {
    ops = (Net.stats sim.net).Net.injected;
    failed = 0;
    setup_s;
    run_s;
    minor_words;
    det;
    exec = dp_exec sim;
    problems;
  }

let build_steady ~seed:_ ~size =
  let sc = Topo.Nets.rnp28 in
  let g = sc.Topo.Nets.graph in
  let plans_made = ref 1 in
  let plan =
    Probe.span Probe.Controller_plan (fun () ->
        Kar.Controller.scenario_plan sc Kar.Controller.Full)
  in
  let egress = sc.Topo.Nets.egress in
  let reencode = reencode_table g [ egress ] ~plans_made in
  {
    graph = g;
    flows =
      [| { src = sc.Topo.Nets.ingress; dst = egress; route_id = plan.Kar.Route.route_id } |];
    plan;
    reencode;
    events = [];
    interval = 20e-6;
    size_bytes = 64;
    duration = 6.0 *. size;
    plans_made = !plans_made;
  }

let churn_duration_s = 15.0

let build_churn ~duration ~seed ~size =
  let g = Experiments.Service.testbed ~n_core:32 () in
  let plans_made = ref 0 in
  let flows =
    fixed_plans g ~k:8 ~level:Kar.Controller.Partial ~plans_made
  in
  let plan =
    match flows with
    | (_, _, p) :: _ -> p
    | [] -> failwith "dp-churn: no pair of the testbed has a partial plan"
  in
  let duration = duration *. size in
  let pairs = List.map (fun (s, d, _) -> (s, d)) flows in
  let events =
    Event.normalize
      (generate g ~horizon:duration ~pairs
         "adversarial:k=2,period=0.5,hold=0.45,level=partial"
      @ generate g ~horizon:duration
          (Printf.sprintf "flap:links=4,period=0.3,duty=0.5,seed=%d" seed))
  in
  let reencode =
    reencode_table g (List.map (fun (_, d, _) -> d) flows) ~plans_made
  in
  {
    graph = g;
    flows =
      Array.of_list
        (List.map
           (fun (src, dst, p) -> { src; dst; route_id = p.Kar.Route.route_id })
           flows);
    plan;
    reencode;
    events;
    interval = 1.0 /. 2000.0;
    size_bytes = 1500;
    duration;
    plans_made = !plans_made;
  }

let dp_steady =
  {
    name = "dp-steady";
    op = "packet";
    pass =
      dp_pass ~build:build_steady ~regions:1 ~check:(fun ~seed:_ _ det ->
          let v k = List.assoc k det in
          problem_if
            (v "net.delivered" <> v "net.injected")
            "dp-steady delivered %.0f of %.0f packets" (v "net.delivered")
            (v "net.injected"));
  }

let dp_churn =
  {
    name = "dp-churn";
    op = "packet";
    pass =
      dp_pass
        ~build:(build_churn ~duration:churn_duration_s)
        ~regions:1
        ~check:(fun ~seed:_ _ _ -> []);
  }

let sharded_duration_s = 2.0

(* The sharded run must compute exactly what the serial simulator computes
   on the same inputs: the twin runs after timing, serially. *)
let check_twin ~seed inputs det =
  let twin = prepare_sim inputs ~regions:1 ~seed ~traced_inner:false in
  run_sim inputs twin;
  let serial = dp_det inputs twin in
  List.concat_map
    (fun (k, v) ->
      let s = List.assoc k serial in
      problem_if (v <> s) "dp-sharded %s = %g, serial twin %g" k v s)
    det

let dp_sharded =
  {
    name = "dp-sharded";
    op = "packet";
    pass =
      dp_pass
        ~build:(build_churn ~duration:sharded_duration_s)
        ~regions:2 ~check:check_twin;
  }

(* ---------------------------------------------------------------------- *)
(* Serving control plane                                                   *)
(* ---------------------------------------------------------------------- *)

(* Serves the generated requests [serves] times, each on a fresh server
   with a private one-job pool; every serve must report identically. *)
let svc_pass ~n_core ~skew ~cache ~rate ~requests ~serves ~flap ~seed ~size
    ~traced =
  let n = scaled requests size in
  let horizon = float_of_int n /. rate in
  let (_, events, _), reports, setup_s, run_s, minor_words =
    timed
      ~setup:(fun () ->
        let g = Experiments.Service.testbed ~n_core () in
        let reqs =
          Probe.span Probe.Workload_gen (fun () ->
              Workload.generate g
                {
                  Workload.default with
                  Workload.n;
                  rate;
                  skew;
                  levels = [| Kar.Controller.Unprotected; Kar.Controller.Partial |];
                  seed;
                })
        in
        let events =
          match flap with
          | None -> []
          | Some f -> generate g ~horizon (f seed)
        in
        (g, events, reqs))
      ~run:(fun (g, events, reqs) ->
        let failures = Event.to_failures events in
        List.init serves (fun _ ->
            let pool = Util.Pool.create ~jobs:1 in
            let server =
              Server.create
                ~config:{ Server.default_config with Server.cache_capacity = cache }
                ~pool ~graph:g ()
            in
            (* planning time, seen from outside: from each Dispatch event
               to the next event the server emits *)
            let planning = ref false in
            let sink ev =
              if !planning then begin
                Probe.leave ();
                planning := false
              end;
              match ev with
              | Kar_service.Event.Dispatch _ ->
                Probe.enter Probe.Batcher_plan;
                planning := true
              | _ -> ()
            in
            let report =
              if traced then Server.run server ~sink ~failures reqs
              else Server.run server ~failures reqs
            in
            if !planning then Probe.leave ();
            Util.Pool.shutdown pool;
            (report, read (Server.registry server) "engine/events")))
  in
  let det_of ((r : Server.report), engine_events) =
    let f = float_of_int in
    [
      ("server.requests", f r.Server.requests);
      ("server.unroutable", f r.Server.unroutable);
      ("server.epochs", f r.Server.epoch);
      ("server.vlat_p50_ms", r.Server.p50 *. 1e3);
      ("server.vlat_p99_ms", r.Server.p99 *. 1e3);
      ("cache.hit", f r.Server.cache_hits);
      ("cache.miss", f r.Server.cache_misses);
      ("cache.stale", f r.Server.cache_stale);
      ("cache.evict", f r.Server.cache_evictions);
      ("cache.hit_ratio", r.Server.hit_ratio);
      ("batcher.batches", f r.Server.batches);
      ("batcher.planned", f r.Server.planned);
      ("batcher.coalesced", f r.Server.coalesced);
      ("engine.events", engine_events);
      ("scenario.events", f (List.length events));
    ]
  in
  let det = det_of (List.hd reports) in
  let r = fst (List.hd reports) in
  let lookups = r.Server.cache_hits + r.Server.cache_misses + r.Server.cache_stale in
  {
    ops = serves * n;
    failed = 0;
    setup_s;
    run_s;
    minor_words;
    det;
    exec = [];
    problems =
      problem_if (lookups <> n) "cache lookups %d <> requests %d" lookups n
      @ problem_if (r.Server.requests <> n) "server answered %d of %d requests"
          r.Server.requests n
      @ problem_if
          (List.exists (fun rep -> det_of rep <> det) reports)
          "the %d serves of one pass reported differently" serves;
  }

let svc_hot =
  {
    name = "svc-hot";
    op = "request";
    pass =
      svc_pass ~n_core:16 ~skew:1.1 ~cache:4096 ~rate:40_000.0
        ~requests:500_000 ~serves:3 ~flap:None;
  }

let svc_churn =
  {
    name = "svc-churn";
    op = "request";
    pass =
      svc_pass ~n_core:32 ~skew:0.9 ~cache:256 ~rate:10_000.0 ~requests:16_000
        ~serves:1 ~flap:
          (Some (Printf.sprintf "flap:links=4,period=0.5,duty=0.4,seed=%d"));
  }

(* ---------------------------------------------------------------------- *)
(* Verifier                                                                *)
(* ---------------------------------------------------------------------- *)

let class_names =
  List.map
    (fun c ->
      ( c,
        "verifier."
        ^ String.map
            (fun ch -> if ch = '-' then '_' else ch)
            (Verifier.classification_to_string c) ))
    Verifier.all_classifications

let refuted = function
  | Verifier.Policy_dependent | Verifier.Loop | Verifier.Blackhole -> true
  | Verifier.Guaranteed | Verifier.Disconnected -> false

let verify_pass ~pairs ~max_k ~seed ~size ~traced:_ =
  let plans_made = ref 0 in
  let (_, instances, sets), (counts, states, raised, first), setup_s, run_s, minor_words =
    timed
      ~setup:(fun () ->
        let g = Experiments.Service.testbed ~n_core:16 () in
        let plans =
          fixed_plans g ~k:(scaled pairs size) ~level:Kar.Controller.Full
            ~plans_made
        in
        let instances =
          Array.of_list
            (List.map
               (fun (src, dst, plan) ->
                 Probe.span Probe.Verifier_prepare (fun () ->
                     Verifier.prepare g ~plan ~policy:Kar.Policy.Not_input_port
                       ~src ~dst ()))
               plans)
        in
        let links = Experiments.Verify.core_links g in
        let sets =
          Array.of_list
            (List.concat_map
               (fun k -> Experiments.Verify.failure_sets links ~k)
               (List.init max_k (fun i -> i + 1)))
        in
        (* verdicts do not depend on the order sets are swept in *)
        Util.Prng.shuffle (Util.Prng.of_int seed) sets;
        (* below one pair, a smaller size sweeps a prefix of the sets *)
        let keep = scaled (Array.length sets) (Float.min 1.0 (size *. float_of_int pairs)) in
        (g, instances, Array.sub sets 0 keep))
      ~run:(fun (_, instances, sets) ->
        let counts = Hashtbl.create 8 in
        let states = ref 0 and raised = ref 0 in
        let first = Array.make (Array.length instances) (-1) in
        Array.iteri
          (fun pi inst ->
            Array.iteri
              (fun si failed ->
                Probe.enter Probe.Verifier_verify;
                (match Verifier.verify inst ~failed with
                 | cls, o ->
                   Hashtbl.replace counts cls
                     (1 + Option.value ~default:0 (Hashtbl.find_opt counts cls));
                   states := !states + o.Verifier.states;
                   if first.(pi) < 0 && refuted cls then first.(pi) <- si
                 | exception _ -> incr raised);
                Probe.leave ())
              sets)
          instances;
        (counts, !states, !raised, first))
  in
  let n_sets = Array.length instances * Array.length sets in
  let count c = Option.value ~default:0 (Hashtbl.find_opt counts c) in
  let verdicts = List.fold_left (fun acc (c, _) -> acc + count c) 0 class_names in
  let replay_failures =
    List.concat
      (List.mapi
         (fun pi si ->
           if si < 0 then []
           else
             match Verifier.refute instances.(pi) ~failed:sets.(si) with
             | Some _, _ -> []
             | None, _ ->
               [ Printf.sprintf "pair %d: set %d is refuted but has no witness" pi si ])
         (Array.to_list first))
  in
  let f = float_of_int in
  {
    ops = n_sets;
    failed = raised;
    setup_s;
    run_s;
    minor_words;
    det =
      [
        ("verifier.pairs", f (Array.length instances));
        ("verifier.sets", f n_sets);
        ("verifier.states", f states);
        ("controller.plans", f !plans_made);
      ]
      @ List.map (fun (c, name) -> (name, f (count c))) class_names;
    exec = [];
    problems =
      problem_if (verdicts + raised <> n_sets) "verdicts %d + raised %d <> sets %d"
        verdicts raised n_sets
      @ replay_failures;
  }

let verify_k3 =
  {
    name = "verify-k3";
    op = "failure set";
    pass = verify_pass ~pairs:2 ~max_k:3;
  }

let all = [ dp_steady; dp_churn; dp_sharded; svc_hot; svc_churn; verify_k3 ]

let find name = List.find_opt (fun w -> w.name = name) all

module Graph = Topo.Graph
module Nets = Topo.Nets
module Verifier = Kar_verify.Verifier
module Counterexample = Kar_verify.Counterexample
module Registry = Kar_obs.Registry
module Span = Kar_obs.Span

(* CLI override (kar_experiments --max-k, and the CI smoke run): caps the
   sweep depth on every topology.  Mirrors the Pool.set_jobs precedent of
   a process-wide knob set once at startup. *)
let max_k_override : int option ref = ref None

let n_classes = List.length Verifier.all_classifications

let class_index c =
  let rec go i = function
    | [] -> assert false
    | x :: rest -> if x = c then i else go (i + 1) rest
  in
  go 0 Verifier.all_classifications

type pair_report = {
  src : int; (* edge labels *)
  dst : int;
  per_k : int array array; (* per_k.(k-1).(class_index c) = #failure sets *)
  adv_k : int;
      (* largest k <= max_k such that every connected failure set with
         |F| <= k is Guaranteed (adversarial resilience) *)
  ang_k : int; (* ditto for can_deliver (angelic resilience) *)
}

type counterexample = {
  cx_class : Verifier.classification;
  cx_src : int;
  cx_dst : int;
  cx_failed : string list; (* failed links as "SWa-SWb" *)
  cx_events : Trace.Event.t list;
  cx_violations : Trace.Invariant.violation list;
}

type topo_report = {
  topology : string;
  max_k : int;
  policy : Kar.Policy.t;
  n_core_links : int;
  pairs : pair_report list;
  counterexamples : counterexample list;
      (* first refutation per refuted class, machine-checked *)
}

let core_links = Graph.core_links

let link_name g id =
  let l = Graph.link g id in
  Printf.sprintf "SW%d-SW%d"
    (Graph.label g l.Graph.ep0.Graph.node)
    (Graph.label g l.Graph.ep1.Graph.node)

(* All k-subsets in lexicographic order of the input list — the sweep
   order is part of the deterministic output contract. *)
let failure_sets links ~k =
  let rec combos k = function
    | _ when k = 0 -> [ [] ]
    | [] -> []
    | x :: rest -> List.map (fun c -> x :: c) (combos (k - 1) rest) @ combos k rest
  in
  combos k links

(* find-or-create handles: [run] sweeps several topologies over one
   registry, so the second topology must reuse the metrics the first one
   registered. *)
let counter_of r name =
  match Registry.find r name with
  | Some (Registry.Counter c) -> c
  | Some _ -> invalid_arg ("Verify: " ^ name ^ " is not a counter")
  | None -> Registry.counter r name

let histogram_of r name =
  match Registry.find r name with
  | Some (Registry.Histogram h) -> h
  | Some _ -> invalid_arg ("Verify: " ^ name ^ " is not a histogram")
  | None -> Registry.histogram r name

let verdict_metric cls =
  "verify/verdict-" ^ Verifier.classification_to_string cls

let instance_for g ~src ~dst ~policy =
  let plan =
    Kar.Controller.protected_route g ~src ~dst ~level:Kar.Controller.Full
  in
  Verifier.prepare g ~plan ~policy ~src ~dst ()

let ordered_pairs g =
  let edges = Graph.edge_nodes g in
  List.concat_map
    (fun src -> List.filter_map (fun dst -> if src <> dst then Some (src, dst) else None) edges)
    edges

let run_topology ?registry ?spans ~name (sc : Nets.scenario) ~max_k ~policy
    () =
  let reg =
    match registry with Some r -> r | None -> Registry.create ()
  in
  (* schema on the main registry, reused across topologies *)
  ignore (counter_of reg "verify/failure-sets");
  List.iter
    (fun cls -> ignore (counter_of reg (verdict_metric cls)))
    Verifier.all_classifications;
  ignore (histogram_of reg "verify/states");
  let g = sc.Nets.graph in
  let pairs = ordered_pairs g in
  let instances =
    Array.of_list
      (List.map (fun (src, dst) -> instance_for g ~src ~dst ~policy) pairs)
  in
  let links = core_links g in
  let sets_per_k =
    Array.init max_k (fun i -> Array.of_list (failure_sets links ~k:(i + 1)))
  in
  (* One unit per (pair, failure set), pair-major then k then subset order:
     the exhaustive sweep is embarrassingly parallel and needs no
     randomness, so Pool's order-restoring join alone makes the output
     identical at any -j. *)
  let units =
    Array.of_list
      (List.concat_map
         (fun pi ->
           List.concat_map
             (fun ki ->
               Array.to_list
                 (Array.map (fun f -> (pi, ki, f)) sets_per_k.(ki)))
             (List.init max_k Fun.id))
         (List.init (Array.length instances) Fun.id))
  in
  (* The sweep counters tally on one registry shard per chunk of units
     (contiguous chunks; each chunk is a single Pool task, so its shard is
     touched by exactly one domain).  The shards merge in index order
     after the join; sums are commutative and associative, so the merged
     totals — and hence any snapshot — are identical at any -j and any
     chunk count. *)
  let n_units = Array.length units in
  let n_chunks = max 1 (min n_units 64) in
  let bounds ci = (ci * n_units / n_chunks, (ci + 1) * n_units / n_chunks) in
  let shards = Registry.shards reg ~n:n_chunks in
  let result_chunks =
    Util.Pool.run (Array.init n_chunks Fun.id) ~f:(fun ~idx:_ ci ->
        let sh = shards.(ci) in
        let s_sets = counter_of sh "verify/failure-sets" in
        let s_cls =
          Array.of_list
            (List.map
               (fun cls -> counter_of sh (verdict_metric cls))
               Verifier.all_classifications)
        in
        let s_states = histogram_of sh "verify/states" in
        let lo, hi = bounds ci in
        Array.init (hi - lo) (fun j ->
            let pi, _, failed = units.(lo + j) in
            let ((cls, outcome) : Verifier.classification * Verifier.outcome)
                =
              Verifier.verify instances.(pi) ~failed
            in
            Registry.incr s_sets;
            Registry.incr s_cls.(class_index cls);
            Registry.observe s_states outcome.Verifier.states;
            (cls, outcome)))
  in
  let results = Array.concat (Array.to_list result_chunks) in
  Array.iter (fun sh -> Registry.merge_into ~into:reg sh) shards;
  (* the sweep "clock" is its own progress: one unit of virtual time per
     verified failure set, so the span is deterministic *)
  Option.iter
    (fun sp ->
      Span.record sp Span.Verify_sweep ~t0:0.0 ~t1:(float_of_int n_units)
        ~detail:n_units)
    spans;
  (* aggregate *)
  let counts =
    Array.init (Array.length instances) (fun _ ->
        Array.init max_k (fun _ -> Array.make n_classes 0))
  in
  let all_adv = Array.make_matrix (Array.length instances) max_k true in
  let all_ang = Array.make_matrix (Array.length instances) max_k true in
  Array.iteri
    (fun i (pi, ki, _) ->
      let cls, (outcome : Verifier.outcome) = results.(i) in
      let row = counts.(pi).(ki) in
      row.(class_index cls) <- row.(class_index cls) + 1;
      if cls <> Verifier.Disconnected then begin
        if cls <> Verifier.Guaranteed then all_adv.(pi).(ki) <- false;
        if not outcome.Verifier.can_deliver then all_ang.(pi).(ki) <- false
      end)
    units;
  let resilience all pi =
    let rec go k = if k < max_k && all.(pi).(k) then go (k + 1) else k in
    go 0
  in
  let pair_reports =
    List.mapi
      (fun pi (src, dst) ->
        {
          src = Graph.label g src;
          dst = Graph.label g dst;
          per_k = counts.(pi);
          adv_k = resilience all_adv pi;
          ang_k = resilience all_ang pi;
        })
      pairs
  in
  (* first refutation per refuted class, in sweep order *)
  let refuted = [ Verifier.Policy_dependent; Verifier.Loop; Verifier.Blackhole ] in
  let counterexamples =
    List.filter_map
      (fun cls ->
        let found = ref None in
        Array.iteri
          (fun i (pi, _, failed) ->
            if !found = None && fst results.(i) = cls then
              found := Some (pi, failed))
          units;
        match !found with
        | None -> None
        | Some (pi, failed) ->
          let inst = instances.(pi) in
          (match Verifier.refute inst ~failed with
           | None, _ -> None
           | Some r, init_stranded ->
             let events = Counterexample.events inst r ~init_stranded in
             let violations =
               Counterexample.check inst r ~init_stranded
             in
             Some
               {
                 cx_class = cls;
                 cx_src = Graph.label g inst.Verifier.src;
                 cx_dst = Graph.label g inst.Verifier.dst;
                 cx_failed = List.map (link_name g) failed;
                 cx_events = events;
                 cx_violations = violations;
               }))
      refuted
  in
  {
    topology = name;
    max_k;
    policy;
    n_core_links = List.length links;
    pairs = pair_reports;
    counterexamples;
  }

let effective_k default =
  match !max_k_override with Some k -> max 1 k | None -> default

let run ?registry ?spans ?(policy = Kar.Policy.Not_input_port) () =
  [
    run_topology ?registry ?spans ~name:"net15" Nets.net15
      ~max_k:(effective_k 3) ~policy ();
    run_topology ?registry ?spans ~name:"rnp28" Nets.rnp28
      ~max_k:(effective_k 2) ~policy ();
  ]

let class_abbrev = function
  | Verifier.Guaranteed -> "G"
  | Verifier.Policy_dependent -> "PD"
  | Verifier.Loop -> "L"
  | Verifier.Blackhole -> "B"
  | Verifier.Disconnected -> "X"

let cell_to_string row =
  let parts =
    List.filter_map
      (fun cls ->
        let n = row.(class_index cls) in
        if n = 0 then None
        else Some (Printf.sprintf "%d%s" n (class_abbrev cls)))
      Verifier.all_classifications
  in
  if parts = [] then "-" else String.concat " " parts

let resilience_to_string ~max_k k =
  if k >= max_k then Printf.sprintf ">=%d" max_k else string_of_int k

let report_to_string (r : topo_report) =
  let b = Buffer.create 1024 in
  Printf.bprintf b
    "%s: %d edge pairs, %d core links, k <= %d, policy %s, full protection\n"
    r.topology (List.length r.pairs) r.n_core_links r.max_k
    (Kar.Policy.to_string r.policy);
  let header =
    [ "Pair" ]
    @ List.init r.max_k (fun i -> Printf.sprintf "k=%d" (i + 1))
    @ [ "adv. k"; "angelic k" ]
  in
  let rows =
    List.map
      (fun p ->
        [ Printf.sprintf "%d->%d" p.src p.dst ]
        @ List.init r.max_k (fun i -> cell_to_string p.per_k.(i))
        @ [
            resilience_to_string ~max_k:r.max_k p.adv_k;
            resilience_to_string ~max_k:r.max_k p.ang_k;
          ])
      r.pairs
  in
  Buffer.add_string b (Util.Texttab.render ~header rows);
  let topo_adv =
    List.fold_left (fun acc p -> min acc p.adv_k) r.max_k r.pairs
  in
  let topo_ang =
    List.fold_left (fun acc p -> min acc p.ang_k) r.max_k r.pairs
  in
  Printf.bprintf b
    "%s resilience (Chiesa-style, over all pairs): adversarial %s, angelic \
     %s (of %d verified)\n"
    r.topology
    (resilience_to_string ~max_k:r.max_k topo_adv)
    (resilience_to_string ~max_k:r.max_k topo_ang)
    r.max_k;
  List.iter
    (fun cx ->
      let ok =
        Counterexample.well_formed cx.cx_violations
        && Counterexample.refutes cx.cx_violations
      in
      Printf.bprintf b
        "counterexample [%s] %d->%d failed={%s}: %d events, machine check \
         %s\n"
        (Verifier.classification_to_string cx.cx_class)
        cx.cx_src cx.cx_dst
        (String.concat "," cx.cx_failed)
        (List.length cx.cx_events)
        (if ok then "OK (delivery refuted, trace well-formed)"
         else "FAILED"))
    r.counterexamples;
  Buffer.contents b

let to_string ?policy ?(metrics = false) () =
  let registry = Registry.create () in
  let spans = Span.create () in
  let reports = run ~registry ~spans ?policy () in
  "Exhaustive k-failure resilience verification (the data plane's own \
   decision per state;\ndeflection draws treated as adversarial choice; G \
   guaranteed, PD policy-dependent,\nL loop, B blackhole, X disconnected)\n\n"
  ^ String.concat "\n" (List.map report_to_string reports)
  ^
  if metrics then
    "\n-- metrics --\n" ^ Kar_obs.Export.summary registry
    ^ Span.summary spans
  else ""

(* --- golden fixture (test/fixtures/verify_net15_k2.jsonl) --- *)

let fixture_lines () =
  let r =
    run_topology ~name:"net15" Nets.net15 ~max_k:2
      ~policy:Kar.Policy.Not_input_port ()
  in
  let verdicts =
    List.concat_map
      (fun p ->
        List.init r.max_k (fun ki ->
            let row = p.per_k.(ki) in
            Printf.sprintf
              "{\"type\":\"verdict\",\"topology\":\"net15\",\"src\":%d,\"dst\":%d,\"k\":%d,\"guaranteed\":%d,\"policy_dependent\":%d,\"loop\":%d,\"blackhole\":%d,\"disconnected\":%d}"
              p.src p.dst (ki + 1)
              row.(class_index Verifier.Guaranteed)
              row.(class_index Verifier.Policy_dependent)
              row.(class_index Verifier.Loop)
              row.(class_index Verifier.Blackhole)
              row.(class_index Verifier.Disconnected)))
      r.pairs
  in
  let cx_lines =
    match r.counterexamples with
    | [] -> []
    | cx :: _ ->
      Printf.sprintf
        "{\"type\":\"counterexample\",\"topology\":\"net15\",\"src\":%d,\"dst\":%d,\"class\":\"%s\",\"failed\":\"%s\"}"
        cx.cx_src cx.cx_dst
        (Verifier.classification_to_string cx.cx_class)
        (String.concat "+" cx.cx_failed)
      :: List.map Trace.Event.to_jsonl cx.cx_events
  in
  verdicts @ cx_lines

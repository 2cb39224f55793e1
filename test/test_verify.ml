(* The exhaustive k-failure resilience verifier.

   The verifier evaluates the data plane's own Kar.Policy.choose at every
   state, so there is no second copy of the forwarding semantics to pin;
   its verdicts are pinned to the simulator instead: k=1
   verdicts are checked against the empirical invariants sweep
   (directionally: adversarial Guaranteed implies empirical delivery;
   adversarial no-delivery implies empirical zero delivery), and refuted
   verdicts replay through Netsim.Engine to reproduce the predicted
   violation.  The golden fixture pins the whole net15 k<=2 verdict table
   byte-for-byte at any -j.  The flat exploration kernel itself is checked
   against a plain reference of its state-graph algorithm on random
   topologies, and its per-call allocation is bounded.  A whole-pipeline
   property runs random topologies from generation through planning,
   verification and simulation. *)

module Graph = Topo.Graph
module Nets = Topo.Nets
module Verifier = Kar_verify.Verifier
module Counterexample = Kar_verify.Counterexample
module Verify = Experiments.Verify

let nip = Kar.Policy.Not_input_port

(* --- the regression for wide switches ---

   The gen:32 service testbed has core switches of degree 19; tables
   materialised per (mask, in_port, deflected) would need 2^19 * 20 * 2
   cells per switch per plan.  Preparing an instance and sweeping every
   single-link failure of one fully protected pair must stay small. *)

let test_gen32_prepare_memory () =
  let g = Experiments.Service.testbed ~n_core:32 () in
  (* the first pair whose fully protected plan fits the route-ID budget *)
  let src, dst, plan =
    let rec first = function
      | [] -> Alcotest.fail "no fully protected pair on gen:32"
      | (src, dst) :: rest ->
        (match
           Kar.Controller.protected_route g ~src ~dst ~level:Kar.Controller.Full
         with
         | plan -> (src, dst, plan)
         | exception Invalid_argument _ -> first rest)
    in
    first
      (List.concat_map
         (fun src ->
           List.filter_map
             (fun dst -> if src <> dst then Some (src, dst) else None)
             (Graph.edge_nodes g))
         (Graph.edge_nodes g))
  in
  Gc.full_major ();
  let heap0 = (Gc.quick_stat ()).Gc.heap_words in
  let inst = Verifier.prepare g ~plan ~policy:nip ~src ~dst () in
  let verdicts =
    List.map
      (fun failed -> fst (Verifier.verify inst ~failed))
      (Verify.failure_sets (Verify.core_links g) ~k:1)
  in
  Gc.full_major ();
  let grown_mb =
    float_of_int (((Gc.quick_stat ()).Gc.heap_words - heap0) * (Sys.word_size / 8))
    /. 1048576.0
  in
  Alcotest.(check bool) "swept every single-link failure" true (verdicts <> []);
  Alcotest.(check bool)
    (Printf.sprintf "live heap grew %.1f MB (< 64 MB)" grown_mb)
    true (grown_mb < 64.0);
  ignore (Sys.opaque_identity inst)

(* --- the flat kernel's allocation budget ---

   After a warm-up sweep has grown this domain's scratch, a call allocates
   its result (the outcome record and the pair, 9 words) and little else,
   on every failure set of up to 3 core links of verify-k3's first gen:16
   pair (bench/e2e). *)

let test_verify_minor_words () =
  let g = Experiments.Service.testbed ~n_core:16 () in
  let src, dst, plan =
    let pairs = Kar_service.Workload.pairs g ~seed:1 in
    let rec first i =
      let src, dst = pairs.(i) in
      match
        Kar.Controller.protected_route g ~src ~dst ~level:Kar.Controller.Full
      with
      | plan -> (src, dst, plan)
      | exception Invalid_argument _ -> first (i + 1)
    in
    first 0
  in
  let inst = Verifier.prepare g ~plan ~policy:nip ~src ~dst () in
  let links = Verify.core_links g in
  let sets =
    List.concat_map (fun k -> Verify.failure_sets links ~k) [ 1; 2; 3 ]
  in
  List.iter (fun failed -> ignore (Verifier.verify inst ~failed)) sets;
  let worst = ref 0.0 in
  List.iter
    (fun failed ->
      let w0 = Gc.minor_words () in
      ignore (Sys.opaque_identity (Verifier.verify inst ~failed));
      let words = Gc.minor_words () -. w0 in
      if words > !worst then worst := words)
    sets;
  Alcotest.(check bool)
    (Printf.sprintf "at most %.0f minor words per call over %d sets (<= 64)"
       !worst (List.length sets))
    true (!worst <= 64.0)

(* --- bad input ---

   A switch too wide for a live-port mask is rejected when the instance is
   prepared, and a link id outside the graph when a set is verified; a
   call that raised leaves nothing behind for the next one. *)

let test_rejects_bad_input () =
  let base = Topo.Gen.complete 63 in
  let g, hosts =
    Topo.Gen.with_edge_hosts base [ Graph.node_of_label base 1 ]
  in
  let plan = Kar.Controller.scenario_plan Nets.net15 Kar.Controller.Full in
  (match hosts with
   | [ host ] -> (
     match Verifier.prepare g ~plan ~policy:nip ~src:host ~dst:host () with
     | _ -> Alcotest.fail "prepare accepted a 63-port switch"
     | exception Invalid_argument msg ->
       Alcotest.(check bool)
         (Printf.sprintf "prepare names the switch (%s)" msg)
         true
         (Astring.String.is_infix ~affix:"SW1 has 63 ports" msg))
   | _ -> Alcotest.fail "one host expected");
  let sc = Nets.net15 in
  let inst =
    Verifier.prepare sc.Nets.graph
      ~plan:(Kar.Controller.scenario_plan sc Kar.Controller.Full)
      ~policy:nip ~src:sc.Nets.ingress ~dst:sc.Nets.egress ()
  in
  let link = List.hd (Verify.core_links sc.Nets.graph) in
  let before = Verifier.verify inst ~failed:[ link ] in
  List.iter
    (fun bad ->
      match Verifier.verify inst ~failed:[ link; bad ] with
      | _ -> Alcotest.failf "verify accepted link id %d" bad
      | exception Invalid_argument _ -> ())
    [ -1; Graph.n_links sc.Nets.graph ];
  Alcotest.(check bool) "the next call is unaffected" true
    (Verifier.verify inst ~failed:[ link ] = before)

(* --- differential oracle ---

   The flat kernel against the algorithm it replaced, stated plainly:
   states keyed in a Hashtbl, successor lists, reachability repeated until
   stable, a recursive 3-colour DFS, a memoised longest path and a list
   BFS for connectivity.  Only Policy.choose and the prepared plans are
   shared with the kernel. *)

module Reference = struct
  type target = State of int | Deliver | Drop

  let explore (inst : Verifier.instance) ~failed =
    let g = inst.Verifier.graph in
    let ids = Hashtbl.create 64 and todo = Queue.create () in
    let state key =
      match Hashtbl.find_opt ids key with
      | Some id -> id
      | None ->
        let id = Hashtbl.length ids in
        Hashtbl.add ids key id;
        Queue.push (id, key) todo;
        id
    in
    (* landing on [u] via port [q]: an edge delivers, drops, or re-encodes
       out its port 0 under its own plan *)
    let rec arrive plan (u, q) deflected relays =
      if relays > Graph.n_nodes g then invalid_arg "edge-to-edge relay chain";
      if Graph.is_core g u then State (state (plan, u, q, deflected))
      else if u = inst.Verifier.dst then Deliver
      else
        match inst.Verifier.plan_of_edge.(u) with
        | -1 -> Drop
        | plan' -> arrive plan' (Graph.peer g u 0) false (relays + 1)
    in
    let init = arrive 0 (Graph.peer g inst.Verifier.src 0) false 0 in
    let succs = Hashtbl.create 64 in
    while not (Queue.is_empty todo) do
      let id, (plan, v, in_port, deflected) = Queue.pop todo in
      let degree = Graph.degree g v in
      let live =
        Kar.Policy.mask_of_failures g ~node:v ~failed:(fun l ->
            List.mem l failed)
      in
      let choice =
        Kar.Policy.choose inst.Verifier.policy
          ~computed:inst.Verifier.primary.(plan).(v) ~in_port ~deflected
          ~degree ~live
      in
      let via ports d =
        List.map (fun p -> arrive plan (Graph.peer g v p) d 0) ports
      in
      Hashtbl.replace succs id
        (if choice < 0 then via [ lnot choice ] deflected
         else if choice > 0 then
           via
             (List.filter
                (fun p -> choice land (1 lsl p) <> 0)
                (List.init degree Fun.id))
             true
         else [ Drop ])
    done;
    (init, Hashtbl.length ids, Hashtbl.find succs)

  let verify (inst : Verifier.instance) ~failed =
    let init, n, succs = explore inst ~failed in
    let states_of ts =
      List.filter_map (function State s -> Some s | _ -> None) ts
    in
    let reaches terminal =
      let reach = Array.make n false and changed = ref true in
      while !changed do
        changed := false;
        for id = 0 to n - 1 do
          if
            (not reach.(id))
            && List.exists
                 (function State s -> reach.(s) | t -> t = terminal)
                 (succs id)
          then begin
            reach.(id) <- true;
            changed := true
          end
        done
      done;
      match init with State id -> reach.(id) | t -> t = terminal
    in
    let cycle =
      let colour = Array.make n 0 and found = ref false in
      let rec visit id =
        if colour.(id) = 1 then found := true
        else if colour.(id) = 0 then begin
          colour.(id) <- 1;
          List.iter visit (states_of (succs id));
          colour.(id) <- 2
        end
      in
      (match init with State id -> visit id | _ -> ());
      !found
    in
    let longest () =
      let memo = Array.make n 0 in
      let rec run id =
        if memo.(id) = 0 then
          memo.(id) <-
            1
            + List.fold_left
                (fun acc s -> max acc (run s))
                0 (states_of (succs id));
        memo.(id)
      in
      match init with State id -> run id | _ -> 0
    in
    let min_deliver_hops =
      match init with
      | Deliver -> 0
      | Drop -> -1
      | State id0 ->
        let dist = Array.make n (-1) and q = Queue.create () in
        dist.(id0) <- 1;
        Queue.push id0 q;
        let best = ref (-1) in
        while !best < 0 && not (Queue.is_empty q) do
          let id = Queue.pop q in
          if List.mem Deliver (succs id) then best := dist.(id)
          else
            List.iter
              (fun s ->
                if dist.(s) < 0 then begin
                  dist.(s) <- dist.(id) + 1;
                  Queue.push s q
                end)
              (states_of (succs id))
        done;
        !best
    in
    let connected =
      let g = inst.Verifier.graph in
      let src = inst.Verifier.src and dst = inst.Verifier.dst in
      let ok u = Graph.is_core g u || u = src || u = dst in
      let rec bfs seen frontier =
        if frontier = [] then false
        else if List.mem dst frontier then true
        else
          let next =
            List.sort_uniq compare
              (List.concat_map
                 (fun v ->
                   List.filter_map
                     (fun (_, (l : Graph.link), u) ->
                       if ok u && (not (List.mem l.Graph.id failed))
                          && not (List.mem u seen)
                       then Some u
                       else None)
                     (Graph.ports g v))
                 frontier)
          in
          bfs (next @ seen) next
      in
      bfs [ src ] [ src ]
    in
    let ttl = Kar.Policy.ttl in
    let can_deliver = min_deliver_hops >= 0 && min_deliver_hops <= ttl in
    let can_drop = reaches Drop in
    let can_loop = cycle || longest () > ttl in
    let classification =
      if not connected then Verifier.Disconnected
      else if can_deliver && (not can_drop) && not can_loop then
        Verifier.Guaranteed
      else if can_deliver then Verifier.Policy_dependent
      else if can_loop then Verifier.Loop
      else Verifier.Blackhole
    in
    ( classification,
      { Verifier.can_deliver; can_drop; can_loop; states = n; min_deliver_hops }
    )
end

let show_outcome (o : Verifier.outcome) =
  Printf.sprintf "deliver=%b drop=%b loop=%b states=%d min_hops=%d"
    o.Verifier.can_deliver o.Verifier.can_drop o.Verifier.can_loop
    o.Verifier.states o.Verifier.min_deliver_hops

(* One failure set: the kernel's verdict and outcome equal the
   reference's, and a refuted verdict has a witness that machine-checks. *)
let check_set inst ~what ~failed =
  let cls, o = Verifier.verify inst ~failed in
  let cls', o' = Reference.verify inst ~failed in
  if cls <> cls' || o <> o' then
    QCheck2.Test.fail_reportf "%s: kernel %s {%s}, reference %s {%s}" what
      (Verifier.classification_to_string cls)
      (show_outcome o)
      (Verifier.classification_to_string cls')
      (show_outcome o');
  match cls with
  | Verifier.Policy_dependent | Verifier.Loop | Verifier.Blackhole -> (
    match Verifier.refute inst ~failed with
    | None, _ -> QCheck2.Test.fail_reportf "%s: refuted, no witness" what
    | Some r, init_stranded ->
      let v = Counterexample.check inst r ~init_stranded in
      if not (Counterexample.well_formed v && Counterexample.refutes v) then
        QCheck2.Test.fail_reportf "%s: witness does not machine-check" what)
  | Verifier.Guaranteed | Verifier.Disconnected -> ()

(* Random Waxman cores of 6-12 switches with a host on every switch, one
   random host pair, every protection level and policy, and random sets of
   0-3 failed core links. *)
let prop_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"verify = reference, refute checks"
       ~print:(fun (n, seed, pick, sets) ->
         Printf.sprintf "n=%d seed=%d pick=%d sets=[%s]" n seed pick
           (String.concat "; "
              (List.map
                 (fun s -> String.concat "," (List.map string_of_int s))
                 sets)))
       QCheck2.Gen.(
         quad (6 -- 12) (1 -- 100_000) nat
           (list_size (1 -- 8) (list_size (0 -- 3) nat)))
       (fun (n, seed, pick, sets) ->
         let g =
           Kar.Ids.assign
             (Topo.Gen.waxman ~n ~alpha:0.9 ~beta:0.35 ~seed)
             Kar.Ids.Prime_powers
         in
         let g, hosts = Topo.Gen.with_edge_hosts g (Graph.core_nodes g) in
         let hosts = Array.of_list hosts in
         let n_hosts = Array.length hosts in
         let i = pick mod n_hosts and j = pick / n_hosts mod (n_hosts - 1) in
         let src = hosts.(i) and dst = hosts.(if j >= i then j + 1 else j) in
         let links = Array.of_list (Verify.core_links g) in
         let sets =
           List.map
             (fun s ->
               List.sort_uniq compare
                 (List.map (fun k -> links.(k mod Array.length links)) s))
             sets
         in
         List.iter
           (fun level ->
             match Kar.Controller.protected_route g ~src ~dst ~level with
             | exception Invalid_argument _ -> ()
             | plan ->
               List.iter
                 (fun policy ->
                   let inst = Verifier.prepare g ~plan ~policy ~src ~dst () in
                   List.iter
                     (fun failed ->
                       check_set inst ~failed
                         ~what:
                           (Printf.sprintf "%s %s failed=[%s]"
                              (Kar.Controller.level_to_string level)
                              (Kar.Policy.to_string policy)
                              (String.concat ","
                                 (List.map string_of_int failed))))
                     sets)
                 Kar.Policy.all)
           Kar.Controller.all_levels;
         true))

(* --- empirical replay harness (mirrors Invariants.run_case) --- *)

let empirical g ~plan ~policy ~src ~dst ~failed ~packets ~seed =
  let engine = Netsim.Engine.create () in
  let net = Netsim.Net.create ~graph:g ~engine () in
  let protected_switches =
    List.map (fun r -> r.Rns.modulus) plan.Kar.Route.residues
  in
  let recorder = Trace.Recorder.create ~protected_switches () in
  Netsim.Net.set_recorder net (Some recorder);
  Netsim.Karnet.install_switches ~plan net ~policy ~seed;
  let cache = Kar.Controller.create_cache g in
  List.iter
    (fun v ->
      Netsim.Karnet.install_edge net v
        ~reencode:(fun (p : Netsim.Packet.t) ->
          Kar.Controller.reencode cache ~at:v ~dst:(Netsim.Packet.dst p))
        ~receive:(fun _ _ -> ())
        ())
    (Graph.edge_nodes g);
  List.iter (fun l -> Netsim.Net.fail_link net l) failed;
  for i = 0 to packets - 1 do
    ignore
      (Netsim.Engine.schedule_at engine
         (float_of_int i *. 1e-3)
         (fun () ->
           let packet =
             Netsim.Packet.make
               ~uid:(Netsim.Net.fresh_uid net)
               ~src ~dst ~size_bytes:512 ~route_id:plan.Kar.Route.route_id
               ~born:(Netsim.Engine.now engine) Netsim.Packet.Raw
           in
           Netsim.Net.inject net ~at:src packet))
  done;
  Netsim.Engine.run engine;
  ((Netsim.Net.stats net).Netsim.Net.delivered, Trace.Recorder.contents recorder)

(* --- the whole pipeline ---

   gen -> ids -> plan -> stamp -> prepare + verify -> simulate, on random
   Waxman cores of 8 to 160 switches.  Waxman's alpha falls as 24/n so
   switch degrees stay near 20 at every size.  Full protection on 128 or
   more switches wants more than the header's 992 bits, so those cases
   plan under the budget.  Hosts sit on four core switches, a quarter of
   the core apart.  At every level the plan must fit the header and stamp
   into a pooled packet, the verifier must classify three single-link
   failures, and that packet, injected with the first of those links down,
   must leave a trace that passes every invariant and return to the pool.
   The simulated run must agree with the verdict on its failure set in the
   direction test_k1_agreement checks: Guaranteed means delivered, and
   Loop, Blackhole or Disconnected mean not delivered.  Any exception
   fails the case. *)
let pipeline_net ~n ~seed ~strategy =
  let core =
    Kar.Ids.assign
      (Topo.Gen.waxman ~n ~alpha:(Float.min 0.9 (24.0 /. float_of_int n))
         ~beta:0.35 ~seed)
      strategy
  in
  let g, hosts =
    Topo.Gen.with_edge_hosts core (List.init 4 (fun i -> (seed + (i * n / 4)) mod n))
  in
  (g, List.nth hosts 0, List.nth hosts 2)

(* One case, run through every stage; the problems found. *)
let pipeline_problems ~n ~seed ~strategy ~policy =
  let g, src, dst = pipeline_net ~n ~seed ~strategy in
  let links = Array.of_list (Verify.core_links g) in
  let sets =
    List.init 3 (fun i -> [ links.((seed + (i * 7919)) mod Array.length links) ])
  in
  List.concat_map
    (fun level ->
      let what = Kar.Controller.level_to_string level in
      let plan = Kar.Controller.protected_route g ~src ~dst ~level in
      let engine = Netsim.Engine.create () in
      let net = Netsim.Net.create ~graph:g ~engine () in
      let packet =
        Netsim.Net.alloc net ~src ~dst ~size_bytes:512
          ~route_id:plan.Kar.Route.route_id Netsim.Packet.Raw
      in
      let inst = Verifier.prepare g ~plan ~policy ~src ~dst () in
      (* all three sets are classified; the run below simulates the first *)
      let verdict =
        List.hd (List.map (fun failed -> fst (Verifier.verify inst ~failed)) sets)
      in
      let recorder =
        Trace.Recorder.create
          ~protected_switches:
            (List.map (fun r -> r.Rns.modulus) plan.Kar.Route.residues)
          ()
      in
      Netsim.Net.set_recorder net (Some recorder);
      Netsim.Karnet.install_switches ~plan net ~policy ~seed;
      let cache = Kar.Controller.create_cache g in
      List.iter
        (fun v ->
          Netsim.Karnet.install_edge net v
            ~reencode:(fun p ->
              Kar.Controller.reencode cache ~at:v ~dst:(Netsim.Packet.dst p))
            ~receive:(fun _ _ -> ())
            ())
        (Graph.edge_nodes g);
      List.iter (Netsim.Net.fail_link net) (List.hd sets);
      Netsim.Net.inject net ~at:src packet;
      Netsim.Engine.run engine;
      let delivered = (Netsim.Net.stats net).Netsim.Net.delivered = 1 in
      let agrees =
        match verdict with
        | Verifier.Guaranteed -> delivered
        | Verifier.Loop | Verifier.Blackhole | Verifier.Disconnected ->
          not delivered
        | Verifier.Policy_dependent -> true
      in
      let checks =
        [ (plan.Kar.Route.bit_length <= Wire.Header.max_route_bits,
           "plan wider than the header");
          (Netsim.Net.pool_in_flight net = 0, "packet not returned to the pool");
          (agrees,
           Printf.sprintf "%s verdict, but the packet was%s delivered"
             (Verifier.classification_to_string verdict)
             (if delivered then "" else " not")) ]
      in
      List.filter_map
        (fun (ok, msg) -> if ok then None else Some (what ^ ": " ^ msg))
        checks
      @ List.map
          (fun v -> Format.asprintf "%s: %a" what Trace.Invariant.pp_violation v)
          (Trace.Invariant.check ~drained:true (Trace.Recorder.contents recorder)))
    Kar.Controller.all_levels

let strategies =
  [ Kar.Ids.Primes_ascending; Kar.Ids.Degree_descending; Kar.Ids.Prime_powers;
    Kar.Ids.Random_primes 5 ]

let prop_pipeline =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:40
       ~name:"gen -> ids -> plan -> verify -> simulate: no crash, no violation"
       ~print:(fun (n, seed, s, p) ->
         Printf.sprintf "n=%d seed=%d strategy=%s policy=%s" n seed
           (Kar.Ids.strategy_to_string (List.nth strategies s))
           (Kar.Policy.to_string (List.nth Kar.Policy.all p)))
       QCheck2.Gen.(quad (8 -- 160) (1 -- 100_000) (0 -- 3) (0 -- 3))
       (fun (n, seed, s, p) ->
         match
           pipeline_problems ~n ~seed ~strategy:(List.nth strategies s)
             ~policy:(List.nth Kar.Policy.all p)
         with
         | [] -> true
         | problems -> QCheck2.Test.fail_report (String.concat "; " problems)))

(* The largest size, where the budget binds: unbounded, the full plan
   would not fit the header. *)
let test_pipeline_past_budget () =
  let n = 160 and seed = 3 and strategy = Kar.Ids.Prime_powers in
  let g, src, dst = pipeline_net ~n ~seed ~strategy in
  Alcotest.(check bool) "unbounded full plan exceeds the header" true
    ((Kar.Controller.protected_route ~max_bits:max_int g ~src ~dst
        ~level:Kar.Controller.Full)
       .Kar.Route.bit_length > Wire.Header.max_route_bits);
  Alcotest.(check (list string)) "pipeline problems" []
    (pipeline_problems ~n ~seed ~strategy ~policy:nip)

(* --- k=1 agreement with the empirical invariants sweep ---

   Adversarial verdicts are directional w.r.t. randomized simulation:
   Guaranteed means every resolution of the deflection draws delivers, so
   the simulator must deliver everything cleanly; no-delivery (Loop or
   Blackhole) means no resolution delivers, so the simulator must deliver
   nothing.  Policy_dependent constrains neither direction (the verifier's
   adversary can force failing draw sequences that have probability ~0 in
   the seeded simulation). *)

let test_k1_agreement () =
  let cases = Experiments.Invariants.run () in
  let scenarios = [ ("net15", Nets.net15); ("rnp28", Nets.rnp28) ] in
  let instances = Hashtbl.create 8 in
  let instance_of topology policy =
    match Hashtbl.find_opt instances (topology, policy) with
    | Some i -> i
    | None ->
      let sc = List.assoc topology scenarios in
      let plan = Kar.Controller.scenario_plan sc Kar.Controller.Full in
      let i =
        Verifier.prepare sc.Nets.graph ~plan ~policy ~src:sc.Nets.ingress
          ~dst:sc.Nets.egress ()
      in
      Hashtbl.add instances (topology, policy) i;
      i
  in
  let checked = ref 0 in
  List.iter
    (fun (c : Experiments.Invariants.case) ->
      if
        c.Experiments.Invariants.level = Kar.Controller.Full
        && (c.Experiments.Invariants.policy = Kar.Policy.Any_valid_port
           || c.Experiments.Invariants.policy = nip)
      then begin
        let sc = List.assoc c.Experiments.Invariants.topology scenarios in
        let g = sc.Nets.graph in
        let link =
          match
            String.split_on_char '-' c.Experiments.Invariants.failure
          with
          | [ a; b ] ->
            let label s = int_of_string (String.sub s 2 (String.length s - 2)) in
            Graph.link_between_labels g (label a) (label b)
          | _ -> Alcotest.failf "unparsable failure %s" c.Experiments.Invariants.failure
        in
        let inst =
          instance_of c.Experiments.Invariants.topology
            c.Experiments.Invariants.policy
        in
        let cls, outcome = Verifier.verify inst ~failed:[ link ] in
        incr checked;
        if cls = Verifier.Guaranteed then begin
          Alcotest.(check int)
            (Printf.sprintf "%s %s %s: Guaranteed => all delivered"
               c.Experiments.Invariants.topology
               c.Experiments.Invariants.failure
               (Kar.Policy.to_string c.Experiments.Invariants.policy))
            c.Experiments.Invariants.packets
            c.Experiments.Invariants.delivered;
          Alcotest.(check int) "Guaranteed => no violations" 0
            (List.length c.Experiments.Invariants.violations)
        end;
        if not outcome.Verifier.can_deliver then
          Alcotest.(check int)
            (Printf.sprintf "%s %s: no-delivery verdict => nothing delivered"
               c.Experiments.Invariants.topology
               c.Experiments.Invariants.failure)
            0 c.Experiments.Invariants.delivered
      end)
    cases;
  (* both topologies, every core link, two policies *)
  Alcotest.(check bool) "agreement covered the sweep" true (!checked >= 120)

(* --- full-protection single-failure claim, decided ---

   The paper's Fig. 5/7 claim at k=1, in adversarial form: under full
   protection every single core-link failure leaves delivery at least
   possible (no Loop/Blackhole/Disconnected verdicts at k=1) for every
   edge pair of both topologies. *)

let test_k1_no_refutation_of_possibility () =
  List.iter
    (fun r ->
      List.iter
        (fun (p : Verify.pair_report) ->
          let row = p.Verify.per_k.(0) in
          let count cls =
            let rec index i = function
              | [] -> assert false
              | c :: rest -> if c = cls then i else index (i + 1) rest
            in
            row.(index 0 Verifier.all_classifications)
          in
          List.iter
            (fun cls ->
              Alcotest.(check int)
                (Printf.sprintf "%s %d->%d k=1 %s" r.Verify.topology
                   p.Verify.src p.Verify.dst
                   (Verifier.classification_to_string cls))
                0 (count cls))
            [ Verifier.Loop; Verifier.Blackhole; Verifier.Disconnected ];
          Alcotest.(check bool)
            (Printf.sprintf "%s %d->%d k=1 angelic" r.Verify.topology
               p.Verify.src p.Verify.dst)
            true
            (p.Verify.ang_k >= 1))
        r.Verify.pairs)
    (Verify.run ())

(* --- counterexample replay ---

   Every counterexample the net15 k<=2 sweep emits must machine-check
   (delivery refuted on a structurally clean trace), and the no-delivery
   classes (Loop/Blackhole) must reproduce empirically: simulating the
   same plan under the same failure set delivers nothing and the live
   trace itself fails the delivery invariant. *)

let test_counterexamples_machine_check () =
  let r = Verify.run_topology ~name:"net15" Nets.net15 ~max_k:2 ~policy:nip () in
  Alcotest.(check bool) "at least one counterexample" true
    (r.Verify.counterexamples <> []);
  List.iter
    (fun (cx : Verify.counterexample) ->
      let what = Verifier.classification_to_string cx.Verify.cx_class in
      Alcotest.(check bool)
        (what ^ ": delivery refuted")
        true
        (Counterexample.refutes cx.Verify.cx_violations);
      Alcotest.(check bool)
        (what ^ ": trace structurally clean")
        true
        (Counterexample.well_formed cx.Verify.cx_violations);
      (* the trace round-trips through the on-disk JSONL format *)
      List.iter
        (fun e ->
          match Trace.Event.of_jsonl (Trace.Event.to_jsonl e) with
          | Ok e' ->
            Alcotest.(check bool) (what ^ ": jsonl roundtrip") true (e = e')
          | Error m -> Alcotest.failf "%s: jsonl parse failed: %s" what m)
        cx.Verify.cx_events;
      (* and through the compact binary format, losslessly and in order *)
      (match
         Trace.Binary.decode_string
           (Trace.Binary.encode_events cx.Verify.cx_events)
       with
       | Ok events ->
         Alcotest.(check bool)
           (what ^ ": binary roundtrip")
           true
           (events = cx.Verify.cx_events)
       | Error m -> Alcotest.failf "%s: binary decode failed: %s" what m))
    r.Verify.counterexamples

let test_no_delivery_verdicts_replay_empirically () =
  let g = Nets.net15.Nets.graph in
  let links = Verify.core_links g in
  let pairs =
    List.concat_map
      (fun src ->
        List.filter_map
          (fun dst -> if src <> dst then Some (src, dst) else None)
          (Graph.edge_nodes g))
      (Graph.edge_nodes g)
  in
  let replayed = ref 0 in
  List.iter
    (fun (src, dst) ->
      let plan =
        Kar.Controller.protected_route g ~src ~dst ~level:Kar.Controller.Full
      in
      let inst = Verifier.prepare g ~plan ~policy:nip ~src ~dst () in
      List.iter
        (fun failed ->
          let _, outcome = Verifier.verify inst ~failed in
          if not outcome.Verifier.can_deliver then begin
            incr replayed;
            let delivered, events =
              empirical g ~plan ~policy:nip ~src ~dst ~failed ~packets:4
                ~seed:11
            in
            let what =
              Printf.sprintf "%d->%d failed=%s" (Graph.label g src)
                (Graph.label g dst)
                (String.concat ","
                   (List.map string_of_int (failed :> int list)))
            in
            Alcotest.(check int)
              (what ^ ": engine delivers nothing")
              0 delivered;
            let violations =
              Trace.Invariant.check ~expect_delivery:true ~drained:true events
            in
            Alcotest.(check bool)
              (what ^ ": live trace fails the delivery invariant")
              true
              (List.exists
                 (fun (v : Trace.Invariant.violation) ->
                   v.Trace.Invariant.invariant = "delivery")
                 violations)
          end)
        (Verify.failure_sets links ~k:2))
    pairs;
  (* the sweep currently refutes delivery for at least one k=2 set *)
  Alcotest.(check bool) "replayed at least one no-delivery verdict" true
    (!replayed >= 1)

(* --- golden fixture --- *)

let fixture_path = "fixtures/verify_net15_k2.jsonl"

let lines_at_jobs jobs =
  Util.Pool.set_jobs jobs;
  let out = Verify.fixture_lines () in
  Util.Pool.set_jobs (Util.Pool.default_jobs ());
  out

let test_fixture_jobs_invariant () =
  let at1 = lines_at_jobs 1 and at8 = lines_at_jobs 8 in
  Alcotest.(check (list string)) "fixture byte-identical at -j 1 and -j 8"
    at1 at8

let test_fixture_matches_disk () =
  let ic = open_in fixture_path in
  let n = in_channel_length ic in
  let disk = really_input_string ic n in
  close_in ic;
  let fresh = String.concat "\n" (Verify.fixture_lines ()) ^ "\n" in
  Alcotest.(check string) "verify_net15_k2.jsonl is current" disk fresh

(* --- per-switch structure of a prepared instance --- *)

let test_compiler_structure () =
  let sc = Nets.net15 in
  let g = sc.Nets.graph in
  let plan = Kar.Controller.scenario_plan sc Kar.Controller.Full in
  let inst =
    Verifier.prepare g ~plan ~policy:nip ~src:sc.Nets.ingress
      ~dst:sc.Nets.egress ()
  in
  List.iter
    (fun v ->
      let switch_id = Graph.label g v in
      let degree = Graph.degree g v in
      let primary = inst.Verifier.primary.(0).(v) in
      Alcotest.(check int) "primary is the modulo answer"
        (Kar.Policy.computed_port ~switch_id ~route_id:plan.Kar.Route.route_id)
        primary;
      (* all-ports-live, fresh packet: a protected on-path switch forwards
         out its planned residue port *)
      let choice =
        Kar.Policy.choose nip ~computed:primary ~in_port:(-1) ~deflected:false
          ~degree
          ~live:(Kar.Policy.mask_of_failures g ~node:v ~failed:(fun _ -> false))
      in
      if choice < 0 then
        Alcotest.(check bool) "forward port within degree" true
          (lnot choice < degree)
      else
        (* off-path switches may legitimately deflect or drop a fresh
           packet: their modulo answer is arbitrary *)
        Alcotest.(check bool) "off the plan" true
          (primary >= degree || not (Kar.Route.is_protected plan switch_id)))
    (Graph.core_nodes g);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "residue switch %d 'protected'" r.Rns.modulus)
        true
        (Kar.Route.is_protected plan r.Rns.modulus))
    plan.Kar.Route.residues

let () =
  Alcotest.run "verify"
    [
      ( "compiler",
        [
          Alcotest.test_case "structure (net15 full plan)" `Quick
            test_compiler_structure;
        ] );
      ( "verifier",
        [
          Alcotest.test_case "gen:32 prepare + k=1 sweep stays small" `Quick
            test_gen32_prepare_memory;
          Alcotest.test_case "a warm call allocates <= 64 minor words"
            `Quick test_verify_minor_words;
          Alcotest.test_case "rejects wide switches and unknown links"
            `Quick test_rejects_bad_input;
          prop_matches_reference;
          Alcotest.test_case "k=1 agreement with invariants sweep" `Quick
            test_k1_agreement;
          Alcotest.test_case "k=1 keeps delivery possible (both topologies)"
            `Quick test_k1_no_refutation_of_possibility;
        ] );
      ( "pipeline",
        [
          prop_pipeline;
          Alcotest.test_case "160 switches, past the header budget" `Quick
            test_pipeline_past_budget;
        ] );
      ( "counterexamples",
        [
          Alcotest.test_case "machine-checked (net15 k<=2)" `Quick
            test_counterexamples_machine_check;
          Alcotest.test_case "no-delivery verdicts replay empirically" `Quick
            test_no_delivery_verdicts_replay_empirically;
        ] );
      ( "fixture",
        [
          Alcotest.test_case "byte-identical at -j 1 and -j 8" `Quick
            test_fixture_jobs_invariant;
          Alcotest.test_case "matches the checked-in file" `Quick
            test_fixture_matches_disk;
        ] );
    ]

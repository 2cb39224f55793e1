module Graph = Topo.Graph
module Paths = Topo.Paths
module Nets = Topo.Nets

type level =
  | Unprotected
  | Partial
  | Full

let all_levels = [ Unprotected; Partial; Full ]

let level_to_string = function
  | Unprotected -> "unprotected"
  | Partial -> "partial"
  | Full -> "full"

let level_of_string s =
  List.find_opt (fun l -> level_to_string l = s) all_levels

let scenario_hops sc level =
  match level with
  | Unprotected -> []
  | Partial -> sc.Nets.partial_protection
  | Full -> sc.Nets.partial_protection @ sc.Nets.full_protection

let scenario_plan sc level =
  let g = sc.Nets.graph in
  let base =
    Route.of_labels_exn g sc.Nets.primary
      ~egress_label:(Graph.label g sc.Nets.egress)
  in
  Route.protect_exn g base (scenario_hops sc level)

(* The core interior of a path between two edge nodes: the path without
   its two endpoints ([] when it has fewer than three nodes). *)
let interior path =
  match path with
  | [] -> []
  | _ :: rest ->
    (match List.rev rest with [] -> [] | _ :: rev_core -> List.rev rev_core)

(* The reverse (ACK) route prefers a path edge-disjoint from the forward
   primary, so that a failure under study disturbs only the direction being
   measured — the standard bidirectional-resilience arrangement, and the
   regime the paper's reported sensitivities correspond to.  When no
   disjoint path exists (e.g. the six-node example), the mirrored primary
   is used. *)
let scenario_reverse_plan sc level =
  let g = sc.Nets.graph in
  let primary_nodes = List.map (Graph.node_of_label g) sc.Nets.primary in
  (* Only the primary's core-core links are avoided: the single host
     uplinks at each end are necessarily shared by both directions. *)
  let forward_links = Paths.path_links g primary_nodes in
  let disjoint l = not (List.mem l.Graph.id forward_links) in
  let reverse_core =
    match Paths.shortest_path g ~usable:disjoint sc.Nets.egress sc.Nets.ingress with
    | Some path ->
      (match interior path with
       | [] -> List.rev sc.Nets.primary
       | core -> List.map (Graph.label g) core)
    | None -> List.rev sc.Nets.primary
  in
  let base =
    Route.of_labels_exn g reverse_core
      ~egress_label:(Graph.label g sc.Nets.ingress)
  in
  (* Protect the reverse route with the same member switches, re-rooted
     toward the reverse destination over links off the reverse path. *)
  let members =
    List.filter
      (fun m -> not (List.mem m reverse_core))
      (List.map fst (scenario_hops sc level))
  in
  let reverse_dest =
    match List.rev reverse_core with
    | last :: _ -> Graph.node_of_label g last
    | [] -> invalid_arg "Controller.scenario_reverse_plan: empty reverse"
  in
  let hops = Protection.tree_hops g ~dest:reverse_dest members in
  let hops = List.filter (fun (s, _) -> not (List.mem s reverse_core)) hops in
  Route.protect_exn g base hops

(* Paths may only transit core switches: a link incident to an edge node is
   usable only when that edge node is one of the endpoints (multi-homed
   hosts in user-supplied topologies must not become transit). *)
let transit_ok g ~src ~dst v = Graph.is_core g v || v = src || v = dst

let no_edge_transit g ~src ~dst l =
  transit_ok g ~src ~dst l.Graph.ep0.Graph.node
  && transit_ok g ~src ~dst l.Graph.ep1.Graph.node

let core_route ?(usable = fun _ -> true) g ~src ~dst =
  let usable l = no_edge_transit g ~src ~dst l && usable l in
  match Paths.shortest_path g ~usable src dst with
  | None ->
    invalid_arg
      (Printf.sprintf "Controller.route: no path between %d and %d" src dst)
  | Some ([] | [ _ ]) -> invalid_arg "Controller.route: degenerate path"
  | Some path -> interior path

let encode_core g core ~dst =
  Route.of_labels_exn g (List.map (Graph.label g) core)
    ~egress_label:(Graph.label g dst)

let route ?usable g ~src ~dst ~protection =
  let base = encode_core g (core_route ?usable g ~src ~dst) ~dst in
  match protection with [] -> base | _ -> Route.protect_exn g base protection

(* Per-pair protection planning for arbitrary (src, dst) pairs — the
   scenario bundles pin their protection hops by hand to match the paper's
   figures, but the verifier, the plan server, the adversary and the
   scaling study plan every pair they meet, so they need one recipe applied
   uniformly: a shortest-path tree toward the egress core switch over the
   off-path members the level selects (radius-1 neighbours for partial, the
   whole component for full), folded in while the plan fits [max_bits].
   Only the primary path honours [usable]; the trees are built on the whole
   graph, since switches check the liveness of a protection hop
   themselves. *)
let protected_route ?usable ?max_bits g ~src ~dst ~level =
  let core = core_route ?usable g ~src ~dst in
  let base = encode_core g core ~dst in
  let members =
    match level with
    | Unprotected -> []
    | Partial -> Protection.off_path_members g ~path:core ~radius:1
    | Full -> Protection.off_path_members g ~path:core ~radius:max_int
  in
  match (members, List.rev core) with
  | [], _ | _, [] -> base
  | _, dest :: _ ->
    Route.protect_skipping ?max_bits g base (Protection.tree_hops g ~dest members)

(* Edge-disjoint route plans between two edge nodes: greedy shortest-path
   extraction over the core (each found path's links are barred from the
   next search), each path encoded unprotected.  The basis for 1+1 edge
   failover and for the multipath exploration the paper lists as future
   work. *)
let disjoint_plans g ~src ~dst ~k =
  if k <= 0 then invalid_arg "Controller.disjoint_plans: k must be positive";
  (* Disjointness applies to core-core links only: the single host uplinks
     at each end are necessarily shared by every plan. *)
  let used = Hashtbl.create 16 in
  let usable l =
    no_edge_transit g ~src ~dst l
    && ((not (Hashtbl.mem used l.Graph.id))
       || (not (Graph.is_core g l.Graph.ep0.Graph.node))
       || not (Graph.is_core g l.Graph.ep1.Graph.node))
  in
  let rec collect n acc =
    if n = 0 then List.rev acc
    else
      match Paths.shortest_path g ~usable src dst with
      | None -> List.rev acc
      | Some path ->
        List.iter (fun id -> Hashtbl.replace used id ()) (Paths.path_links g path);
        collect (n - 1) (path :: acc)
  in
  collect k []
  |> List.filter_map (fun path ->
         match interior path with
         | [] -> None
         | core ->
           let labels = List.map (Graph.label g) core in
           (match Route.of_labels g labels ~egress_label:(Graph.label g dst) with
            | Ok plan -> Some plan
            | Error _ -> None))

type cache = {
  graph : Graph.t;
  plans : (Graph.node * Graph.node, Bignum.Z.t option) Hashtbl.t;
  mutable computed : int;
}

let create_cache graph = { graph; plans = Hashtbl.create 64; computed = 0 }

let reencode cache ~at ~dst =
  match Hashtbl.find_opt cache.plans (at, dst) with
  | Some cached -> cached
  | None ->
    let result =
      try Some (route cache.graph ~src:at ~dst ~protection:[]).Route.route_id
      with Invalid_argument _ -> None
    in
    cache.computed <- cache.computed + 1;
    Hashtbl.replace cache.plans (at, dst) result;
    result

let plans_computed cache = cache.computed

module Graph = Topo.Graph

type outcome = {
  can_deliver : bool;
  can_drop : bool;
  can_loop : bool;
  states : int;
  min_deliver_hops : int;
}

type classification =
  | Guaranteed
  | Policy_dependent
  | Loop
  | Blackhole
  | Disconnected

let classification_to_string = function
  | Guaranteed -> "guaranteed"
  | Policy_dependent -> "policy-dependent"
  | Loop -> "loop"
  | Blackhole -> "blackhole"
  | Disconnected -> "disconnected"

let all_classifications =
  [ Guaranteed; Policy_dependent; Loop; Blackhole; Disconnected ]

type instance = {
  graph : Graph.t;
  src : Graph.node;
  dst : Graph.node;
  policy : Kar.Policy.t;
  ttl : int;
  plan : Kar.Route.plan;
  primary : int array array;
  plan_of_edge : int array;
}

(* Per node, the port the plan computes there ([-1] at edge nodes): all
   the verifier needs of a plan, since [Policy.choose] does the rest per
   state. *)
let primary_ports g plan =
  Array.init (Graph.n_nodes g) (fun v ->
      if Graph.is_core g v then
        Kar.Route.port_at plan ~switch_id:(Graph.label g v)
      else -1)

let prepare ?(ttl = 128) g ~plan ~policy ~src ~dst () =
  let primary = ref [ primary_ports g plan ] in
  let n = ref 1 in
  let plan_of_edge = Array.make (Graph.n_nodes g) (-1) in
  List.iter
    (fun e ->
      if e <> dst then
        (* Mirror Controller.reencode: an unprotected shortest-path plan
           from the stranding edge, computed on the failure-free graph. *)
        match Kar.Controller.route g ~src:e ~dst ~protection:[] with
        | p ->
          primary := primary_ports g p :: !primary;
          plan_of_edge.(e) <- !n;
          incr n
        | exception Invalid_argument _ -> ())
    (Graph.edge_nodes g);
  {
    graph = g;
    src;
    dst;
    policy;
    ttl;
    plan;
    primary = Array.of_list (List.rev !primary);
    plan_of_edge;
  }

(* Physical reachability of dst from src in g - F, transiting core switches
   only (an edge node other than the endpoints cannot relay traffic).  The
   yardstick for the ideal-resilience comparison: when this is false no
   routing scheme could deliver, and the failure set is classified
   [Disconnected] rather than held against KAR. *)
let connected inst ~failed =
  let g = inst.graph in
  let ok v = Graph.is_core g v || v = inst.src || v = inst.dst in
  let seen = Array.make (Graph.n_nodes g) false in
  let q = Queue.create () in
  seen.(inst.src) <- true;
  Queue.push inst.src q;
  let found = ref false in
  while (not !found) && not (Queue.is_empty q) do
    let v = Queue.pop q in
    if v = inst.dst then found := true
    else
      List.iter
        (fun (_, (l : Graph.link), far) ->
          if (not failed.(l.Graph.id)) && ok far && not seen.(far) then begin
            seen.(far) <- true;
            Queue.push far q
          end)
        (Graph.ports g v)
  done;
  !found

(* --- the state graph ---

   A state is (plan index, core node, input port, deflected): exactly what
   [Policy.choose] consults besides the live mask.  TTL is deliberately not
   part of the state: a reachable cycle in this finite graph is a run that
   exhausts any TTL, and acyclic runs are bounded by the longest path,
   which [verify] checks against the TTL explicitly. *)

type step = {
  switch : int;
  in_port : int;
  out_port : int;
  via_computed : bool;
  deflected_before : bool;
  deflected_after : bool;
  stranded : int;
      (* label of the edge the packet stranded at (and was re-encoded by)
         after this hop, or -1 when it landed on a core switch / terminal *)
}

type refutation =
  | Drops of { steps : step list; at : int; at_in_port : int }
  | Loops of { prefix : step list; cycle : step list }

type target =
  | T_state of int
  | T_deliver
  | T_drop of { at : int; at_in_port : int }

type exploration = {
  n_states : int;
  succs : (target * step option) list array;
      (* per state, the decision's fan-out; [step] is [None] only for the
         drop-at-this-switch pseudo-transition *)
  init : target;
  init_stranded : int;
      (* edge the packet stranded at straight off injection, or -1 *)
}

let explore inst ~failed =
  let g = inst.graph in
  let n_nodes = Graph.n_nodes g in
  let n_plans = Array.length inst.primary in
  let masks =
    Array.init n_nodes (fun v ->
        if Graph.is_core g v then
          Kar.Policy.mask_of_failures g ~node:v ~failed:(fun id -> failed.(id))
        else 0)
  in
  let ids : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let state_of : (int, int * int * int * bool) Hashtbl.t =
    Hashtbl.create 256
  in
  let n_states = ref 0 in
  let todo = Queue.create () in
  let key ~plan ~node ~in_port ~deflected =
    (((plan * n_nodes) + node) * (n_nodes + 2))
    + (in_port + 1)
    + if deflected then n_plans * n_nodes * (n_nodes + 2) else 0
  in
  let state_id ~plan ~node ~in_port ~deflected =
    let k = key ~plan ~node ~in_port ~deflected in
    match Hashtbl.find_opt ids k with
    | Some id -> id
    | None ->
      let id = !n_states in
      incr n_states;
      Hashtbl.add ids k id;
      Hashtbl.add state_of id (plan, node, in_port, deflected);
      Queue.push id todo;
      id
  in
  (* Landing on node [u] via port [q]: a core switch becomes a state; an
     edge node delivers, re-encodes (continuing out its port 0 under the
     edge's own plan with a cleared deflected flag, exactly like Karnet's
     edge handler), or drops the packet when no re-encode plan exists.
     Returns the target and the label of the stranding edge (or -1). *)
  let rec land_on ~depth ~plan ~node:u ~in_port:q ~deflected =
    if depth > n_nodes then
      invalid_arg "Verifier: edge-to-edge relay chain (unsupported topology)";
    if Graph.is_core g u then
      (T_state (state_id ~plan ~node:u ~in_port:q ~deflected), -1)
    else if u = inst.dst then (T_deliver, -1)
    else
      match inst.plan_of_edge.(u) with
      | -1 -> (T_drop { at = Graph.label g u; at_in_port = q }, -1)
      | plan' ->
        let w, r = Graph.peer g u 0 in
        let t, _ =
          land_on ~depth:(depth + 1) ~plan:plan' ~node:w ~in_port:r
            ~deflected:false
        in
        (t, Graph.label g u)
  in
  let init, init_stranded =
    (* injection: the source edge ships the packet out its port 0 *)
    let w, r = Graph.peer g inst.src 0 in
    land_on ~depth:0 ~plan:0 ~node:w ~in_port:r ~deflected:false
  in
  let succs_tbl : (int, (target * step option) list) Hashtbl.t =
    Hashtbl.create 256
  in
  while not (Queue.is_empty todo) do
    let id = Queue.pop todo in
    let plan, v, in_port, deflected = Hashtbl.find state_of id in
    let switch_id = Graph.label g v in
    let degree = Graph.degree g v in
    let out ports_mask ~via_computed ~deflected_after =
      let rec go p acc =
        if p >= degree then List.rev acc
        else if ports_mask land (1 lsl p) = 0 then go (p + 1) acc
        else begin
          let u, q = Graph.peer g v p in
          let t, strand =
            land_on ~depth:0 ~plan ~node:u ~in_port:q
              ~deflected:deflected_after
          in
          let step =
            {
              switch = switch_id;
              in_port;
              out_port = p;
              via_computed;
              deflected_before = deflected;
              deflected_after;
              stranded = strand;
            }
          in
          go (p + 1) ((t, Some step) :: acc)
        end
      in
      go 0 []
    in
    let choice =
      Kar.Policy.choose inst.policy ~computed:inst.primary.(plan).(v) ~in_port
        ~deflected ~degree ~live:masks.(v)
    in
    let successors =
      if choice < 0 then
        out (1 lsl lnot choice) ~via_computed:true ~deflected_after:deflected
      else if choice > 0 then
        out choice ~via_computed:false ~deflected_after:true
      else [ (T_drop { at = switch_id; at_in_port = in_port }, None) ]
    in
    Hashtbl.replace succs_tbl id successors
  done;
  let succs =
    Array.init !n_states (fun id ->
        match Hashtbl.find_opt succs_tbl id with Some l -> l | None -> [])
  in
  { n_states = !n_states; succs; init; init_stranded }

(* Reachability of a terminal predicate, by fixpoint over the (small)
   state set. *)
let reaches expl ~terminal =
  let reach = Array.make (max expl.n_states 1) false in
  let direct targets =
    List.exists
      (fun (t, _) ->
        match t with T_state id -> reach.(id) | t -> terminal t)
      targets
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for id = 0 to expl.n_states - 1 do
      if (not reach.(id)) && direct expl.succs.(id) then begin
        reach.(id) <- true;
        changed := true
      end
    done
  done;
  match expl.init with
  | T_state id -> reach.(id)
  | t -> terminal t

let is_deliver = function T_deliver -> true | _ -> false
let is_drop = function T_drop _ -> true | _ -> false

(* Cycle detection over the states reachable from init (every explored
   state is reachable by construction): 3-colour DFS. *)
let has_cycle expl =
  let color = Array.make (max expl.n_states 1) 0 in
  let cycle = ref false in
  let rec visit id =
    if color.(id) = 1 then cycle := true
    else if color.(id) = 0 then begin
      color.(id) <- 1;
      List.iter
        (fun (t, _) -> match t with T_state s -> visit s | _ -> ())
        expl.succs.(id);
      color.(id) <- 2
    end
  in
  (match expl.init with T_state id -> visit id | _ -> ());
  !cycle

(* Hop accounting matches Karnet: a switch arrival bumps the hop count and
   the decision only happens when hops <= ttl.  The init state is arrival
   1; each transition is one further arrival.  Delivery from a state at
   BFS depth d therefore needs d <= ttl. *)
let shortest_deliver expl =
  match expl.init with
  | T_deliver -> Some 0
  | T_drop _ -> None
  | T_state init ->
    let dist = Array.make expl.n_states (-1) in
    dist.(init) <- 1;
    let q = Queue.create () in
    Queue.push init q;
    let best = ref None in
    while !best = None && not (Queue.is_empty q) do
      let id = Queue.pop q in
      if List.exists (fun (t, _) -> is_deliver t) expl.succs.(id) then
        best := Some dist.(id)
      else
        List.iter
          (fun (t, _) ->
            match t with
            | T_state s when dist.(s) < 0 ->
              dist.(s) <- dist.(id) + 1;
              Queue.push s q
            | _ -> ())
          expl.succs.(id)
    done;
    !best

(* Longest run (in switch arrivals) of the acyclic state graph — only
   meaningful when [has_cycle] is false. *)
let longest_run expl =
  match expl.init with
  | T_state init ->
    let memo = Array.make expl.n_states (-1) in
    let rec depth id =
      if memo.(id) >= 0 then memo.(id)
      else begin
        let deepest =
          List.fold_left
            (fun acc (t, _) ->
              match t with T_state s -> max acc (depth s) | _ -> acc)
            0 expl.succs.(id)
        in
        memo.(id) <- 1 + deepest;
        memo.(id)
      end
    in
    depth init
  | _ -> 0

let failed_array g links =
  let failed = Array.make (Graph.n_links g) false in
  List.iter (fun id -> failed.(id) <- true) links;
  failed

let verify inst ~failed:failed_links =
  let failed = failed_array inst.graph failed_links in
  let expl = explore inst ~failed in
  let cyc = has_cycle expl in
  let min_deliver_hops =
    match shortest_deliver expl with Some d -> d | None -> -1
  in
  (* TTL guards: a delivery deeper than the TTL is unreachable in the real
     data plane, and an acyclic run longer than the TTL still dies of TTL
     exhaustion (counted in the loop class — TTL death is how loops
     manifest in the engine). *)
  let can_deliver = min_deliver_hops >= 0 && min_deliver_hops <= inst.ttl in
  let can_drop = reaches expl ~terminal:is_drop in
  let can_loop = cyc || longest_run expl > inst.ttl in
  let outcome =
    {
      can_deliver;
      can_drop;
      can_loop;
      states = expl.n_states;
      min_deliver_hops;
    }
  in
  let classification =
    if not (connected inst ~failed) then Disconnected
    else if can_deliver && (not can_drop) && not can_loop then Guaranteed
    else if can_deliver then Policy_dependent
    else if can_loop then Loop
    else Blackhole
  in
  (classification, outcome)

(* --- refutation witnesses ---

   A refutation is one concrete resolution of the deflection choices that
   fails: a finite run into a drop, or a lasso (prefix + cycle) whose
   unrolling dies of TTL.  {!Counterexample} turns either into a
   Trace-format replay. *)

let steps_of_path path = List.filter_map (fun (_, s) -> s) path

let refute_drop expl =
  match expl.init with
  | T_drop { at; at_in_port } -> Some (Drops { steps = []; at; at_in_port })
  | T_deliver -> None
  | T_state init ->
    (* BFS with parent pointers to the nearest drop *)
    let parent = Array.make expl.n_states None in
    let seen = Array.make expl.n_states false in
    seen.(init) <- true;
    let q = Queue.create () in
    Queue.push init q;
    let found = ref None in
    while !found = None && not (Queue.is_empty q) do
      let id = Queue.pop q in
      List.iter
        (fun (t, s) ->
          match t with
          | T_drop { at; at_in_port } when !found = None ->
            found := Some (id, s, at, at_in_port)
          | T_state nxt when not seen.(nxt) ->
            seen.(nxt) <- true;
            parent.(nxt) <- Some (id, s);
            Queue.push nxt q
          | _ -> ())
        expl.succs.(id)
    done;
    (match !found with
     | None -> None
     | Some (last, last_step, at, at_in_port) ->
       let rec unwind id acc =
         match parent.(id) with
         | None -> acc
         | Some (prev, s) -> unwind prev ((prev, s) :: acc)
       in
       let path = unwind last [] @ [ (last, last_step) ] in
       Some (Drops { steps = steps_of_path path; at; at_in_port }))

let refute_loop expl =
  match expl.init with
  | T_state init ->
    (* DFS lasso search; the trail records (from-state, to-state, step)
       per traversed edge *)
    let color = Array.make expl.n_states 0 in
    let result = ref None in
    let rec visit trail id =
      if !result = None then begin
        color.(id) <- 1;
        List.iter
          (fun (t, s) ->
            match t with
            | T_state nxt when !result = None ->
              if color.(nxt) = 1 then begin
                let trail' = List.rev ((id, nxt, s) :: trail) in
                let rec split acc = function
                  | [] -> None
                  | ((from, _, _) as tr) :: rest ->
                    if from = nxt then Some (List.rev acc, tr :: rest)
                    else split (tr :: acc) rest
                in
                match split [] trail' with
                | Some (prefix, cycle) ->
                  let steps l =
                    steps_of_path (List.map (fun (f, _, s) -> (f, s)) l)
                  in
                  result :=
                    Some (Loops { prefix = steps prefix; cycle = steps cycle })
                | None -> ()
              end
              else if color.(nxt) = 0 then visit ((id, nxt, s) :: trail) nxt
            | _ -> ())
          expl.succs.(id);
        if !result = None then color.(id) <- 2
      end
    in
    visit [] init;
    !result
  | _ -> None

(* [refute inst ~failed] is one concrete failing run under F, or [None]
   when delivery is guaranteed (or immediate).  Prefers the drop witness
   (shorter traces).  Also returns the label of the edge the packet
   stranded at straight off injection (-1 normally) so the emitter can
   reproduce the initial re-encode. *)
let refute inst ~failed:failed_links =
  let failed = failed_array inst.graph failed_links in
  let expl = explore inst ~failed in
  let r =
    match refute_drop expl with Some r -> Some r | None -> refute_loop expl
  in
  (r, expl.init_stranded)

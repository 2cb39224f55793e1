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

(* The graph as int arrays.  Every port of the graph has one index: port
   [p] of node [v] is [off.(v) + p].  A state (plan, core node, in_port,
   deflected) is then its arrival port under a plan plus a flag, so its
   slot in the dense state index is [((plan * ports) + port) * 2 +
   deflected]. *)
type flat = {
  off : int array;  (* per node, its first port; one extra entry *)
  peer : int array;  (* per port, the port at the far end of its link *)
  owner : int array;  (* per port, the node it belongs to *)
  label : int array;  (* per node *)
  core : bool array;  (* per node *)
  all_live : int array;  (* per node, every port live; 0 at edges *)
  n_slots : int;  (* plans x ports x 2 *)
}

type instance = {
  graph : Graph.t;
  src : Graph.node;
  dst : Graph.node;
  policy : Kar.Policy.t;
  plan : Kar.Route.plan;
  primary : int array array;
  plan_of_edge : int array;
  flat : flat;
}

(* Per node, the port the plan computes there ([-1] at edge nodes): all
   the verifier needs of a plan, since [Policy.choose] does the rest per
   state. *)
let primary_ports g plan =
  Array.init (Graph.n_nodes g) (fun v ->
      if Graph.is_core g v then
        Kar.Route.port_at plan ~switch_id:(Graph.label g v)
      else -1)

let flatten g ~n_plans =
  let n = Graph.n_nodes g in
  let off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v) + Graph.degree g v
  done;
  let ports = off.(n) in
  let peer = Array.make ports 0 and owner = Array.make ports 0 in
  for v = 0 to n - 1 do
    for p = 0 to Graph.degree g v - 1 do
      let u, q = Graph.peer g v p in
      peer.(off.(v) + p) <- off.(u) + q;
      owner.(off.(v) + p) <- v
    done
  done;
  {
    off;
    peer;
    owner;
    label = Array.init n (Graph.label g);
    core = Array.init n (Graph.is_core g);
    all_live =
      Array.init n (fun v ->
          if Graph.is_core g v then
            Kar.Policy.mask_of_failures g ~node:v ~failed:(fun _ -> false)
          else 0);
    n_slots = n_plans * ports * 2;
  }

let prepare g ~plan ~policy ~src ~dst () =
  if Graph.degree g src = 0 then
    invalid_arg "Verifier.prepare: the source edge has no port";
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
    plan;
    primary = Array.of_list (List.rev !primary);
    plan_of_edge;
    flat = flatten g ~n_plans:!n;
  }

(* --- the state graph ---

   A state is (plan index, core node, input port, deflected): exactly what
   [Policy.choose] consults besides the live mask.  TTL is deliberately not
   part of the state: a reachable cycle in this finite graph is a run that
   exhausts any TTL, and acyclic runs are bounded by the longest path,
   which [verify] checks against the TTL explicitly.

   A successor's target is a state id, or one of two terminal codes:
   [deliver], or [drop_at a] for a drop at the node owning port [a], the
   port the packet arrived on. *)

let deliver = -1
let drop_at a = -2 - a
let is_drop t = t <= -2

(* Working memory for one call, one per domain: an instance is shared by
   the domains of a sweep, so it cannot hold it.  It only grows, to the
   largest instance the domain has seen, and nothing is cleared between
   calls: a slot, port or node entry belongs to this call only when its
   stamp is [gen]. *)
type scratch = {
  mutable gen : int;
  mutable n : int;  (* states explored *)
  mutable m : int;  (* successors recorded *)
  slot_gen : int array;  (* per slot, the call that reached it *)
  slot_id : int array;  (* per slot, its state id in that call *)
  slot : int array;  (* per state, its slot *)
  depth : int array;  (* per state, switch arrivals from injection *)
  first : int array;  (* per state, its first successor; one extra *)
  mutable tgt : int array;  (* per successor, a state id or terminal code *)
  mutable out : int array;  (* per successor, the out port; -1 when stuck *)
  w0 : int array;  (* per state, work arrays for the passes that follow *)
  w1 : int array;  (* the exploration, each pass naming them for its *)
  w2 : int array;  (* own use *)
  live : int array;  (* per node, the live mask under F *)
  node_gen : int array;  (* per node, the call whose BFS reached it *)
  queue : int array;  (* per node, that BFS's queue *)
  port_gen : int array;  (* per port, the call that failed its link *)
}

(* Zeroed arrays: a zero stamp predates every call. *)
let scratch ~gen ~slots ~nodes ~ports =
  let zeros len = Array.make len 0 in
  {
    gen;
    n = 0;
    m = 0;
    slot_gen = zeros slots;
    slot_id = zeros slots;
    slot = zeros slots;
    depth = zeros slots;
    first = zeros (slots + 1);
    tgt = zeros slots;
    out = zeros slots;
    w0 = zeros slots;
    w1 = zeros slots;
    w2 = zeros slots;
    live = zeros nodes;
    node_gen = zeros nodes;
    queue = zeros nodes;
    port_gen = zeros ports;
  }

let scratch_key =
  Domain.DLS.new_key (fun () -> scratch ~gen:0 ~slots:0 ~nodes:0 ~ports:0)

let rec fail_links s fl g = function
  | [] -> ()
  | id :: rest ->
    if id < 0 || id >= Graph.n_links g then
      invalid_arg (Printf.sprintf "Verifier: link id %d out of range" id);
    let l = Graph.link g id in
    fail_port s fl l.Graph.ep0;
    fail_port s fl l.Graph.ep1;
    fail_links s fl g rest

and fail_port s fl (e : Graph.endpoint) =
  s.port_gen.(fl.off.(e.node) + e.port) <- s.gen;
  s.live.(e.node) <- s.live.(e.node) land lnot (1 lsl e.port)

(* This domain's scratch, sized for [inst], with a fresh stamp and the
   live masks under [failed]. *)
let start inst ~failed =
  let fl = inst.flat in
  let nodes = Array.length fl.label and ports = Array.length fl.peer in
  let s = Domain.DLS.get scratch_key in
  let s =
    if
      Array.length s.slot_gen >= fl.n_slots
      && Array.length s.live >= nodes
      && Array.length s.port_gen >= ports
    then s
    else begin
      let grown =
        scratch ~gen:s.gen
          ~slots:(max fl.n_slots (Array.length s.slot_gen))
          ~nodes:(max nodes (Array.length s.live))
          ~ports:(max ports (Array.length s.port_gen))
      in
      Domain.DLS.set scratch_key grown;
      grown
    end
  in
  s.gen <- s.gen + 1;
  s.n <- 0;
  s.m <- 0;
  Array.blit fl.all_live 0 s.live 0 nodes;
  fail_links s fl inst.graph failed;
  s

let plan_of fl slot = (slot lsr 1) / Array.length fl.peer
let port_of fl slot = (slot lsr 1) mod Array.length fl.peer

(* The target of arriving on port [a] under [plan] with the deflected flag
   [deflected] (0 or 1), [depth] switch arrivals after injection.  A core
   switch is a state, numbered on its first arrival.  An edge node
   delivers, drops when it has no re-encode plan, or re-encodes: out its
   port 0 under its own plan with the flag cleared, exactly like Karnet's
   edge handler. *)
let rec arrive s inst ~plan ~arrival:a ~deflected ~depth ~relays =
  let fl = inst.flat in
  if relays > Array.length fl.label then
    invalid_arg "Verifier: edge-to-edge relay chain (unsupported topology)";
  let u = fl.owner.(a) in
  if fl.core.(u) then begin
    let slot = (((plan * Array.length fl.peer) + a) lsl 1) lor deflected in
    if s.slot_gen.(slot) = s.gen then s.slot_id.(slot)
    else begin
      let id = s.n in
      s.n <- id + 1;
      s.slot_gen.(slot) <- s.gen;
      s.slot_id.(slot) <- id;
      s.slot.(id) <- slot;
      s.depth.(id) <- depth;
      id
    end
  end
  else if u = inst.dst then deliver
  else
    match inst.plan_of_edge.(u) with
    | -1 -> drop_at a
    | plan' ->
      arrive s inst ~plan:plan' ~arrival:fl.peer.(fl.off.(u)) ~deflected:0
        ~depth ~relays:(relays + 1)

(* [Policy.choose] at state [id]. *)
let decide s inst id =
  let fl = inst.flat in
  let slot = s.slot.(id) in
  let a = port_of fl slot in
  let v = fl.owner.(a) in
  Kar.Policy.choose inst.policy
    ~computed:inst.primary.(plan_of fl slot).(v)
    ~in_port:(a - fl.off.(v))
    ~deflected:(slot land 1 = 1)
    ~degree:(fl.off.(v + 1) - fl.off.(v))
    ~live:s.live.(v)

let doubled a =
  let b = Array.make (2 * Array.length a) 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

let push s t p =
  if s.m = Array.length s.tgt then begin
    s.tgt <- doubled s.tgt;
    s.out <- doubled s.out
  end;
  s.tgt.(s.m) <- t;
  s.out.(s.m) <- p;
  s.m <- s.m + 1

(* The decision's fan-out at state [id], in port order. *)
let expand s inst id =
  let fl = inst.flat in
  let slot = s.slot.(id) in
  let plan = plan_of fl slot and a = port_of fl slot in
  let v = fl.owner.(a) in
  let base = fl.off.(v) and depth = s.depth.(id) + 1 in
  s.first.(id) <- s.m;
  let choice = decide s inst id in
  if choice < 0 then
    push s
      (arrive s inst ~plan
         ~arrival:fl.peer.(base + lnot choice)
         ~deflected:(slot land 1) ~depth ~relays:0)
      (lnot choice)
  else if choice > 0 then begin
    for p = 0 to fl.off.(v + 1) - base - 1 do
      if choice land (1 lsl p) <> 0 then
        push s
          (arrive s inst ~plan ~arrival:fl.peer.(base + p) ~deflected:1
             ~depth ~relays:0)
          p
    done
  end
  else push s (drop_at a) (-1)

(* The port a packet lands on when injected: the source edge ships it out
   its port 0. *)
let injection inst = inst.flat.peer.(inst.flat.off.(inst.src))

(* Breadth-first from the landing after injection.  States are numbered
   in discovery order, so the queue is the id range itself.  Returns the
   initial target. *)
let explore s inst =
  let init =
    arrive s inst ~plan:0 ~arrival:(injection inst) ~deflected:0 ~depth:1
      ~relays:0
  in
  let id = ref 0 in
  while !id < s.n do
    expand s inst !id;
    incr id
  done;
  s.first.(s.n) <- s.m;
  init

(* Hop accounting matches Karnet: a switch arrival bumps the hop count and
   the decision only happens when hops <= ttl.  The init state is arrival
   1; each transition is one further arrival.  States are numbered in
   BFS order, so the first state with a delivering successor is a
   shallowest one. *)
let min_deliver_hops s init =
  if init = deliver then 0
  else begin
    let best = ref (-1) and id = ref 0 in
    while !best < 0 && !id < s.n do
      for e = s.first.(!id) to s.first.(!id + 1) - 1 do
        if s.tgt.(e) = deliver then best := s.depth.(!id)
      done;
      incr id
    done;
    !best
  end

(* Every explored state is reachable from the initial one, so some run
   drops exactly when some state has a drop successor. *)
let can_drop s init =
  let e = ref 0 in
  while !e < s.m && not (is_drop s.tgt.(!e)) do
    incr e
  done;
  is_drop init || !e < s.m

(* Kahn's pass over the explored states: the longest run in switch
   arrivals, or -1 when a cycle is reachable (some state never reaches
   in-degree 0).  Every state but the initial one has an incoming edge,
   so the initial one is the only start. *)
let kahn s =
  let n = s.n in
  if n = 0 then 0
  else begin
    let indeg = s.w0 and run = s.w1 and queue = s.w2 in
    Array.fill indeg 0 n 0;
    Array.fill run 0 n 0;
    for e = 0 to s.m - 1 do
      let t = s.tgt.(e) in
      if t >= 0 then indeg.(t) <- indeg.(t) + 1
    done;
    let head = ref 0 and tail = ref 0 and longest = ref 0 in
    if indeg.(0) = 0 then begin
      queue.(0) <- 0;
      run.(0) <- 1;
      tail := 1
    end;
    while !head < !tail do
      let id = queue.(!head) in
      incr head;
      if run.(id) > !longest then longest := run.(id);
      for e = s.first.(id) to s.first.(id + 1) - 1 do
        let t = s.tgt.(e) in
        if t >= 0 then begin
          if run.(id) + 1 > run.(t) then run.(t) <- run.(id) + 1;
          indeg.(t) <- indeg.(t) - 1;
          if indeg.(t) = 0 then begin
            queue.(!tail) <- t;
            incr tail
          end
        end
      done
    done;
    if !head < n then -1 else !longest
  end

(* Physical reachability of dst from src in g - F, transiting core switches
   only (an edge node other than the endpoints cannot relay traffic).  The
   yardstick for the ideal-resilience comparison: when this is false no
   routing scheme could deliver, and the failure set is classified
   [Disconnected] rather than held against KAR. *)
let connected s inst =
  let fl = inst.flat in
  let q = s.queue in
  s.node_gen.(inst.src) <- s.gen;
  q.(0) <- inst.src;
  let head = ref 0 and tail = ref 1 and found = ref false in
  while (not !found) && !head < !tail do
    let v = q.(!head) in
    incr head;
    if v = inst.dst then found := true
    else
      for a = fl.off.(v) to fl.off.(v + 1) - 1 do
        let u = fl.owner.(fl.peer.(a)) in
        if
          s.port_gen.(a) <> s.gen
          && (fl.core.(u) || u = inst.src || u = inst.dst)
          && s.node_gen.(u) <> s.gen
        then begin
          s.node_gen.(u) <- s.gen;
          q.(!tail) <- u;
          incr tail
        end
      done
  done;
  !found

let verify inst ~failed =
  let s = start inst ~failed in
  let init = explore s inst in
  let min_deliver_hops = min_deliver_hops s init in
  (* TTL guards: a delivery deeper than the TTL is unreachable in the real
     data plane, and an acyclic run longer than the TTL still dies of TTL
     exhaustion (counted in the loop class — TTL death is how loops
     manifest in the engine). *)
  let can_deliver =
    min_deliver_hops >= 0 && min_deliver_hops <= Kar.Policy.ttl
  in
  let can_drop = can_drop s init in
  let run = kahn s in
  let can_loop = run < 0 || run > Kar.Policy.ttl in
  let outcome =
    { can_deliver; can_drop; can_loop; states = s.n; min_deliver_hops }
  in
  let classification =
    if not (connected s inst) then Disconnected
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
   Trace-format replay.  Both searches walk the explored successors in
   order and build [step] records only along the witness. *)

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

(* The label of the edge a packet arriving on port [a] strands at and is
   re-encoded by, or -1. *)
let stranded inst a =
  let fl = inst.flat in
  let u = fl.owner.(a) in
  if fl.core.(u) || u = inst.dst || inst.plan_of_edge.(u) < 0 then -1
  else fl.label.(u)

(* The hop along successor [e] of state [id]. *)
let step_of s inst id e =
  let fl = inst.flat in
  let slot = s.slot.(id) in
  let a = port_of fl slot in
  let base = fl.off.(fl.owner.(a)) in
  let via_computed = decide s inst id < 0 in
  let deflected = slot land 1 = 1 in
  {
    switch = fl.label.(fl.owner.(a));
    in_port = a - base;
    out_port = s.out.(e);
    via_computed;
    deflected_before = deflected;
    deflected_after = deflected || not via_computed;
    stranded = stranded inst fl.peer.(base + s.out.(e));
  }

let drop_witness inst t ~steps =
  let fl = inst.flat in
  let a = -2 - t in
  let v = fl.owner.(a) in
  Drops { steps; at = fl.label.(v); at_in_port = a - fl.off.(v) }

(* The nearest drop.  The exploration was a BFS from the initial state, so
   the first state with a drop successor is a nearest one, and the first
   edge into each state is the BFS tree edge that discovered it. *)
let refute_drop s inst init =
  if init = deliver then None
  else if is_drop init then Some (drop_witness inst init ~steps:[])
  else begin
    let last = ref (-1) and id = ref 0 in
    while !last < 0 && !id < s.n do
      for e = s.first.(!id) to s.first.(!id + 1) - 1 do
        if !last < 0 && is_drop s.tgt.(e) then last := e
      done;
      if !last < 0 then incr id
    done;
    if !last < 0 then None
    else begin
      let parent = s.w0 and via = s.w1 in
      Array.fill parent 0 s.n (-1);
      for from = 0 to s.n - 1 do
        for e = s.first.(from) to s.first.(from + 1) - 1 do
          let t = s.tgt.(e) in
          if t > 0 && parent.(t) < 0 then begin
            parent.(t) <- from;
            via.(t) <- e
          end
        done
      done;
      let rec unwind id acc =
        if id = 0 then acc
        else unwind parent.(id) (step_of s inst parent.(id) via.(id) :: acc)
      in
      let e = !last in
      (* a stuck switch drops without taking a hop *)
      let final = if s.out.(e) < 0 then [] else [ step_of s inst !id e ] in
      Some (drop_witness inst s.tgt.(e) ~steps:(unwind !id final))
    end
  end

(* A lasso, by depth-first search from the initial state: [path.(k)] is
   the state at depth [k] and [next.(k)] its next successor to try, so
   the edge taken out of depth [k] is [next.(k) - 1]. *)
let refute_loop s inst init =
  if init < 0 then None
  else begin
    let colour = s.w0 and path = s.w1 and next = s.w2 in
    Array.fill colour 0 s.n 0;
    colour.(0) <- 1;
    path.(0) <- 0;
    next.(0) <- s.first.(0);
    let top = ref 0 and back = ref (-1) in
    while !back < 0 && !top >= 0 do
      let id = path.(!top) and e = next.(!top) in
      if e = s.first.(id + 1) then begin
        colour.(id) <- 2;
        decr top
      end
      else begin
        next.(!top) <- e + 1;
        let t = s.tgt.(e) in
        if t >= 0 && colour.(t) = 1 then back := t
        else if t >= 0 && colour.(t) = 0 then begin
          colour.(t) <- 1;
          incr top;
          path.(!top) <- t;
          next.(!top) <- s.first.(t)
        end
      end
    done;
    if !back < 0 then None
    else begin
      (* the back edge closes the cycle at the depth holding its target *)
      let rec depth_of k = if path.(k) = !back then k else depth_of (k + 1) in
      let j = depth_of 0 in
      let steps lo hi =
        List.init (hi - lo) (fun i ->
            step_of s inst path.(lo + i) (next.(lo + i) - 1))
      in
      Some (Loops { prefix = steps 0 j; cycle = steps j (!top + 1) })
    end
  end

(* [refute inst ~failed] is one concrete failing run under F, or [None]
   when delivery is guaranteed (or immediate).  Prefers the drop witness
   (shorter traces).  Also returns the label of the edge the packet
   stranded at straight off injection (-1 normally) so the emitter can
   reproduce the initial re-encode. *)
let refute inst ~failed =
  let s = start inst ~failed in
  let init = explore s inst in
  let r =
    match refute_drop s inst init with
    | Some r -> Some r
    | None -> refute_loop s inst init
  in
  (r, stranded inst (injection inst))

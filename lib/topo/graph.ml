type node = int
type link_id = int

type node_kind =
  | Core
  | Edge

type endpoint = { node : node; port : int }

type link = {
  id : link_id;
  ep0 : endpoint;
  ep1 : endpoint;
  rate_bps : float;
  delay_s : float;
}

type t = {
  labels : int array;
  kinds : node_kind array;
  ports : link_id array array; (* ports.(v).(p) = link id *)
  far : node array array; (* far.(v).(p) = the node across port p of v *)
  link_arr : link array;
  by_label : (int, node) Hashtbl.t;
  trees : node array option Atomic.t array; (* per destination, filled on first use *)
}

let default_rate_bps = 200e6
let default_delay_s = 50e-6
let max_core_label = 1 lsl 31

let check_core_label fn kind label =
  if kind = Core && (label < 1 || label >= max_core_label) then
    invalid_arg
      (Printf.sprintf "%s: core switch ID %d is outside [1, 2^31)" fn label)

module Builder = struct
  type bnode = {
    blabel : int;
    bkind : node_kind;
    mutable bports : (int * link_id) list; (* (port, link) assoc, unsorted *)
  }

  type t = {
    mutable nodes : bnode list; (* reversed *)
    mutable n : int;
    mutable links : link list; (* reversed *)
    mutable nl : int;
    seen_labels : (int, unit) Hashtbl.t;
  }

  let create () =
    { nodes = []; n = 0; links = []; nl = 0; seen_labels = Hashtbl.create 64 }

  let add_node b ?(kind = Core) label =
    check_core_label "Graph.Builder.add_node" kind label;
    if Hashtbl.mem b.seen_labels label then
      invalid_arg (Printf.sprintf "Graph.Builder.add_node: duplicate label %d" label);
    Hashtbl.add b.seen_labels label ();
    let v = b.n in
    b.nodes <- { blabel = label; bkind = kind; bports = [] } :: b.nodes;
    b.n <- b.n + 1;
    v

  let node b v =
    if v < 0 || v >= b.n then invalid_arg "Graph.Builder: node out of range";
    List.nth b.nodes (b.n - 1 - v)

  let port_taken bn p = List.mem_assoc p bn.bports

  let next_free_port bn =
    let rec go p = if port_taken bn p then go (p + 1) else p in
    go 0

  let attach bn port link =
    if port < 0 then invalid_arg "Graph.Builder: negative port";
    if port_taken bn port then
      invalid_arg (Printf.sprintf "Graph.Builder: port %d already occupied" port);
    bn.bports <- (port, link) :: bn.bports

  let add_link_at b ?(rate_bps = default_rate_bps) ?(delay_s = default_delay_s)
      (u, pu) (v, pv) =
    if u = v then invalid_arg "Graph.Builder.add_link_at: self-loop";
    let bu = node b u and bv = node b v in
    (* A rate of 0 or a non-finite delay would strand packets in flight,
       and a negative one reaches the engine as a negative delay.  Zero
       delay is legal. *)
    let bad what value want =
      invalid_arg
        (Printf.sprintf "Graph.Builder.add_link_at: link %d:%d-%d:%d has %s %g (%s)"
           bu.blabel pu bv.blabel pv what value want)
    in
    if not (Float.is_finite rate_bps && rate_bps > 0.0) then
      bad "rate" rate_bps "want a finite rate > 0 b/s";
    if not (Float.is_finite delay_s && delay_s >= 0.0) then
      bad "delay" delay_s "want a finite delay >= 0 s";
    let id = b.nl in
    attach bu pu id;
    attach bv pv id;
    let l =
      {
        id;
        ep0 = { node = u; port = pu };
        ep1 = { node = v; port = pv };
        rate_bps;
        delay_s;
      }
    in
    b.links <- l :: b.links;
    b.nl <- b.nl + 1;
    id

  let add_link b ?rate_bps ?delay_s u v =
    if u = v then invalid_arg "Graph.Builder.add_link: self-loop";
    let pu = next_free_port (node b u) and pv = next_free_port (node b v) in
    add_link_at b ?rate_bps ?delay_s (u, pu) (v, pv)

  let finish b =
    let nodes = Array.of_list (List.rev b.nodes) in
    let labels = Array.map (fun bn -> bn.blabel) nodes in
    let kinds = Array.map (fun bn -> bn.bkind) nodes in
    let ports =
      Array.mapi
        (fun v bn ->
          let deg = List.length bn.bports in
          let arr = Array.make deg (-1) in
          List.iter
            (fun (p, l) ->
              if p >= deg then
                invalid_arg
                  (Printf.sprintf
                     "Graph.Builder.finish: node %d (label %d) has sparse ports \
                      (port %d but degree %d)"
                     v labels.(v) p deg);
              arr.(p) <- l)
            bn.bports;
          Array.iteri
            (fun p l ->
              if l < 0 then
                invalid_arg
                  (Printf.sprintf "Graph.Builder.finish: node %d port %d unused" v p))
            arr;
          arr)
        nodes
    in
    let by_label = Hashtbl.create (Array.length labels) in
    Array.iteri (fun v l -> Hashtbl.replace by_label l v) labels;
    let link_arr = Array.of_list (List.rev b.links) in
    let far =
      Array.mapi
        (fun v arr ->
          Array.map
            (fun l ->
              let l = link_arr.(l) in
              if l.ep0.node = v then l.ep1.node else l.ep0.node)
            arr)
        ports
    in
    let trees = Array.init (Array.length labels) (fun _ -> Atomic.make None) in
    { labels; kinds; ports; far; link_arr; by_label; trees }
end

let n_nodes g = Array.length g.labels
let n_links g = Array.length g.link_arr
let label g v = g.labels.(v)
let kind g v = g.kinds.(v)
let is_core g v = g.kinds.(v) = Core

let find_label g l = Hashtbl.find_opt g.by_label l

let node_of_label g l =
  match find_label g l with
  | Some v -> v
  | None -> raise Not_found

let degree g v = Array.length g.ports.(v)

let link g id = g.link_arr.(id)

let link_at g v p =
  if p < 0 || p >= degree g v then
    invalid_arg (Printf.sprintf "Graph.link_at: port %d out of range at node %d" p v);
  g.link_arr.(g.ports.(v).(p))

let other_end l v =
  if l.ep0.node = v then l.ep1
  else if l.ep1.node = v then l.ep0
  else invalid_arg "Graph.other_end: node not on link"

let endpoint_at l v =
  if l.ep0.node = v then l.ep0
  else if l.ep1.node = v then l.ep1
  else invalid_arg "Graph.endpoint_at: node not on link"

let peer g v p =
  let l = link_at g v p in
  let e = other_end l v in
  (e.node, e.port)

let far g v p = g.far.(v).(p)

let neighbors g v = Array.to_list g.far.(v)

let ports g v =
  List.init (degree g v) (fun p -> (p, link_at g v p, g.far.(v).(p)))

let port_towards g v u =
  let far = g.far.(v) in
  let rec go p =
    if p >= Array.length far then None
    else if far.(p) = u then Some p
    else go (p + 1)
  in
  go 0

let links g = Array.to_list g.link_arr

(* Two domains may fill a slot at once: both build the same tree and the
   first compare-and-set wins, so every caller sees one array. *)
let dest_tree g dest ~build =
  let slot = g.trees.(dest) in
  match Atomic.get slot with
  | Some parent -> parent
  | None ->
    let parent = build g dest in
    if Atomic.compare_and_set slot None (Some parent) then parent
    else Option.get (Atomic.get slot)

let link_between g u v =
  match port_towards g u v with
  | None -> None
  | Some p -> Some (link_at g u p).id

let link_between_labels g lu lv =
  let u = node_of_label g lu and v = node_of_label g lv in
  match link_between g u v with
  | Some id -> id
  | None -> raise Not_found

let fold_nodes g ~init ~f =
  let acc = ref init in
  for v = 0 to n_nodes g - 1 do
    acc := f !acc v
  done;
  !acc

let iter_nodes g ~f =
  for v = 0 to n_nodes g - 1 do
    f v
  done

let core_nodes g =
  fold_nodes g ~init:[] ~f:(fun acc v -> if is_core g v then v :: acc else acc)
  |> List.rev

let edge_nodes g =
  fold_nodes g ~init:[] ~f:(fun acc v -> if not (is_core g v) then v :: acc else acc)
  |> List.rev

let core_links g =
  List.filter_map
    (fun l -> if is_core g l.ep0.node && is_core g l.ep1.node then Some l.id else None)
    (links g)

let core_labels g = List.sort Stdlib.compare (List.map (label g) (core_nodes g))

let relabel g mapping =
  if Array.length mapping <> n_nodes g then
    invalid_arg "Graph.relabel: wrong mapping length";
  let by_label = Hashtbl.create (Array.length mapping) in
  Array.iteri
    (fun v l ->
      check_core_label "Graph.relabel" g.kinds.(v) l;
      if Hashtbl.mem by_label l then
        invalid_arg (Printf.sprintf "Graph.relabel: duplicate label %d" l);
      Hashtbl.replace by_label l v)
    mapping;
  { g with labels = Array.copy mapping; by_label }

let pp ppf g =
  Format.fprintf ppf "graph: %d nodes (%d core), %d links@." (n_nodes g)
    (List.length (core_nodes g))
    (n_links g);
  iter_nodes g ~f:(fun v ->
      Format.fprintf ppf "  [%d] label=%d %s:" v (label g v)
        (match kind g v with Core -> "core" | Edge -> "edge");
      List.iter
        (fun (p, _, far) -> Format.fprintf ppf " %d->%d" p (label g far))
        (ports g v);
      Format.fprintf ppf "@.")

module Graph = Topo.Graph
module Paths = Topo.Paths

let core_link l g =
  Graph.is_core g l.Graph.ep0.node && Graph.is_core g l.Graph.ep1.node

(* The breadth-first tree toward [dest] over core-core links depends on
   the graph and [dest] alone (one tree per destination serves every
   source), so the graph keeps it once built. *)
let core_tree g dest = snd (Paths.bfs g ~usable:(fun l -> core_link l g) dest)

let tree_hops g ~dest members =
  let parent = Graph.dest_tree g dest ~build:core_tree in
  List.filter_map
    (fun m_label ->
      match Graph.find_label g m_label with
      | Some m when parent.(m) >= 0 -> Some (m_label, Graph.label g parent.(m))
      | Some _ | None -> None)
    members

(* A multi-source BFS from the path over core-core links, each path node
   enqueued once and no node expanded at [radius]: the nodes it reaches
   are those within [radius], at the same distances as an unbounded
   search gives them. *)
let off_path_members g ~path ~radius =
  let n = Graph.n_nodes g in
  let dist = Array.make n max_int in
  let on_path = Array.make n false in
  let queue = Array.make n 0 in
  let tail = ref 0 in
  List.iter
    (fun v ->
      if not on_path.(v) then begin
        on_path.(v) <- true;
        dist.(v) <- 0;
        queue.(!tail) <- v;
        incr tail
      end)
    path;
  let sources = !tail in
  let head = ref 0 in
  while !head < !tail do
    let v = queue.(!head) in
    incr head;
    if dist.(v) < radius && Graph.is_core g v then
      for p = 0 to Graph.degree g v - 1 do
        let far = Graph.far g v p in
        if dist.(far) = max_int && Graph.is_core g far then begin
          dist.(far) <- dist.(v) + 1;
          queue.(!tail) <- far;
          incr tail
        end
      done
  done;
  let found = ref [] in
  for i = !tail - 1 downto sources do
    let v = queue.(i) in
    found := (dist.(v), Graph.label g v) :: !found
  done;
  let by_distance_then_label (d, l) (d', l') =
    if d <> d' then Int.compare d d' else Int.compare l l'
  in
  List.map snd (List.sort by_distance_then_label !found)

(* The core nodes across [v]'s ports, in port order, leaving out the link
   [failed] and the node [except]. *)
let core_exits g v ~failed ~except =
  List.filter_map
    (fun p ->
      let far = Graph.far g v p in
      if (Graph.link_at g v p).Graph.id = failed || far = except
         || not (Graph.is_core g far)
      then None
      else Some far)
    (List.init (Graph.degree g v) Fun.id)

let coverage g ~plan ~failed =
  let failed_link = Graph.link g failed in
  (* Find the path switch whose forward hop uses the failed link. *)
  let rec upstream = function
    | a :: (b :: _ as rest) ->
      (match Graph.link_between g a b with
       | Some id when id = failed -> Some (a, b)
       | _ -> upstream rest)
    | _ -> None
  in
  let residue_port label =
    List.find_map
      (fun r -> if r.Rns.modulus = label then Some r.Rns.value else None)
      plan.Route.residues
  in
  let dest =
    match List.rev plan.Route.core_path with
    | [] -> invalid_arg "Protection.coverage: empty path"
    | last :: _ -> last
  in
  match upstream plan.Route.core_path with
  | None -> 1.0 (* the failed link is not on the path: nothing to cover *)
  | Some (v, _) ->
    let in_node =
      (* predecessor of v on the path, if any *)
      let rec pred = function
        | a :: b :: _ when b = v -> Some a
        | _ :: rest -> pred rest
        | [] -> None
      in
      pred plan.Route.core_path
    in
    (* Deterministic drive: follow residues (and forced degree-2 moves)
       until the destination, a dead end, or a revisit. *)
    let rec driven visited node from_node =
      if node = dest then true
      else if List.mem node visited then false
      else begin
        let next =
          match residue_port (Graph.label g node) with
          | Some p when p < Graph.degree g node ->
            let l = Graph.link_at g node p in
            if l.Graph.id = failed then None
            else Some (Graph.other_end l node).Graph.node
          | Some _ -> None
          | None ->
            (* unprotected: only a forced move counts as driven *)
            (match core_exits g node ~failed ~except:from_node with
             | [ only ] -> Some only
             | _ -> None)
        in
        match next with
        | Some far -> driven (node :: visited) far node
        | None -> false
      end
    in
    let alternatives =
      core_exits g v ~failed:failed_link.Graph.id
        ~except:(Option.value in_node ~default:(-1))
    in
    match alternatives with
    | [] -> 0.0
    | alts ->
      let covered = List.filter (fun far -> driven [ v ] far v) alts in
      float_of_int (List.length covered) /. float_of_int (List.length alts)

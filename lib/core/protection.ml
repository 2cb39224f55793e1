module Graph = Topo.Graph
module Paths = Topo.Paths

let core_link l g =
  Graph.is_core g l.Graph.ep0.node && Graph.is_core g l.Graph.ep1.node

let tree_hops g ~dest members =
  let usable l = core_link l g in
  let dist, parent = Paths.bfs g ~usable dest in
  List.filter_map
    (fun m_label ->
      match Graph.find_label g m_label with
      | None -> None
      | Some m ->
        if m = dest || dist.(m) = max_int then None
        else Some (m_label, Graph.label g parent.(m)))
    members

let off_path_members g ~path ~radius =
  let on_path v = List.mem v path in
  let usable l = core_link l g in
  (* Multi-source BFS from the path. *)
  let n = Graph.n_nodes g in
  let dist = Array.make n max_int in
  let q = Queue.create () in
  List.iter
    (fun v ->
      dist.(v) <- 0;
      Queue.add v q)
    path;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    List.iter
      (fun (_, l, far) ->
        if usable l && dist.(far) = max_int then begin
          dist.(far) <- dist.(v) + 1;
          Queue.add far q
        end)
      (Graph.ports g v)
  done;
  Graph.core_nodes g
  |> List.filter (fun v -> (not (on_path v)) && dist.(v) <> max_int && dist.(v) <= radius)
  |> List.map (fun v -> (dist.(v), Graph.label g v))
  |> List.sort Stdlib.compare
  |> List.map snd

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
            let candidates =
              List.filter_map
                (fun (_, l, far) ->
                  if l.Graph.id = failed || far = from_node
                     || not (Graph.is_core g far)
                  then None
                  else Some far)
                (Graph.ports g node)
            in
            (match candidates with [ only ] -> Some only | _ -> None)
        in
        match next with
        | Some far -> driven (node :: visited) far node
        | None -> false
      end
    in
    let alternatives =
      List.filter_map
        (fun (_, l, far) ->
          let excluded_in =
            match in_node with Some p -> far = p | None -> false
          in
          if l.Graph.id = failed_link.Graph.id || excluded_in
             || not (Graph.is_core g far)
          then None
          else Some far)
        (Graph.ports g v)
    in
    match alternatives with
    | [] -> 0.0
    | alts ->
      let covered = List.filter (fun far -> driven [ v ] far v) alts in
      float_of_int (List.length covered) /. float_of_int (List.length alts)

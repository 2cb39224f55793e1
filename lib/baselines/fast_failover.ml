module Net = Netsim.Net
module Packet = Netsim.Packet
module Graph = Topo.Graph
module Paths = Topo.Paths

let table_size g = List.length (Graph.edge_nodes g)

(* Primary port at [v] toward [dst]: first hop of a shortest path.  Backup:
   the neighbour (other than the primary) minimising detour distance to
   [dst] with the primary link removed. *)
let entries g v dst =
  match Paths.shortest_path g v dst with
  | None | Some [] | Some [ _ ] -> None
  | Some (_ :: next :: _) ->
    let primary =
      match Graph.port_towards g v next with
      | Some p -> p
      | None -> assert false
    in
    let primary_link = (Graph.link_at g v primary).Graph.id in
    let without_primary l = l.Graph.id <> primary_link in
    let dist, _ = Paths.bfs g ~usable:without_primary dst in
    let backup =
      List.fold_left
        (fun best (p, _, far) ->
          if p = primary then best
          else if dist.(far) = max_int then best
          else
            match best with
            | Some (_, best_d) when best_d <= dist.(far) + 1 -> best
            | _ -> Some (p, dist.(far) + 1))
        None (Graph.ports g v)
    in
    Some (primary, Option.map fst backup)

let install net =
  let g = Net.graph net in
  let dests = Graph.edge_nodes g in
  (* table.(v) : (dst, primary, backup option) list *)
  let table =
    Array.init (Graph.n_nodes g) (fun v ->
        if not (Graph.is_core g v) then []
        else
          List.filter_map
            (fun dst ->
              match entries g v dst with
              | None -> None
              | Some (primary, backup) -> Some (dst, primary, backup))
            dests)
  in
  List.iter
    (fun v ->
      let handler net _node (packet : Packet.t) ~in_port =
        Packet.set_hops packet (Packet.hops packet + 1);
        if Packet.hops packet > Net.ttl net then
          Net.drop ~at:v ~in_port net packet Net.Ttl_exceeded
        else begin
          match
            List.find_opt (fun (dst, _, _) -> dst = Packet.dst packet) table.(v)
          with
          | None -> Net.drop ~at:v ~in_port net packet Net.No_route
          | Some (_, primary, backup) ->
            (* the port state this switch has observed, which lags a
               physical change by the detection delay *)
            let usable p = Net.live_mask net v land (1 lsl p) <> 0 in
            if usable primary then Net.send net ~from_node:v ~port:primary packet
            else begin
              match backup with
              | Some b when usable b ->
                (* local protection switchover, no controller involved *)
                Net.send net ~from_node:v ~port:b packet
              | Some _ | None -> Net.drop ~at:v ~in_port net packet Net.No_route
            end
        end
      in
      Net.set_node_handler net v handler)
    (Graph.core_nodes g)

let hops_between g src dst ~failed =
  (* Walk the deterministic primary/backup decisions. *)
  let link_ok id = not (List.mem id failed) in
  let rec step v from_count visited =
    if v = dst then Some from_count
    else if from_count > 4 * Graph.n_nodes g then None
    else if List.mem v visited then None
    else if not (Graph.is_core g v) then None
    else begin
      match entries g v dst with
      | None -> None
      | Some (primary, backup) ->
        let usable p = link_ok (Graph.link_at g v p).Graph.id in
        let choice =
          if usable primary then Some primary
          else
            match backup with
            | Some b when usable b -> Some b
            | Some _ | None -> None
        in
        (match choice with
         | None -> None
         | Some port ->
           let far = (Graph.other_end (Graph.link_at g v port) v).Graph.node in
           step far (from_count + 1) (v :: visited))
    end
  in
  (* enter the core via src's first healthy port *)
  let rec entry p =
    if p >= Graph.degree g src then None
    else begin
      let l = Graph.link_at g src p in
      if link_ok l.Graph.id then Some (Graph.other_end l src).Graph.node
      else entry (p + 1)
    end
  in
  match entry 0 with
  | None -> None
  | Some first -> step first 0 []

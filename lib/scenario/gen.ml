module Graph = Topo.Graph
module Prng = Util.Prng

let ( let* ) = Result.bind

(* Per-link interval union: overlapping or touching down-windows merge, so
   the emitted stream alternates strictly per link.  A window still open
   at the horizon emits no repair. *)
let events_of_windows ~horizon windows =
  let by_link = Hashtbl.create 16 in
  List.iter
    (fun (l, t0, t1) ->
      let prev = try Hashtbl.find by_link l with Not_found -> [] in
      Hashtbl.replace by_link l ((t0, t1) :: prev))
    windows;
  let links =
    List.sort Int.compare (Hashtbl.fold (fun l _ acc -> l :: acc) by_link [])
  in
  let events = ref [] in
  List.iter
    (fun l ->
      let ws =
        List.sort
          (fun (a0, a1) (b0, b1) ->
            match Float.compare a0 b0 with
            | 0 -> Float.compare a1 b1
            | c -> c)
          (Hashtbl.find by_link l)
      in
      let emit (t0, t1) =
        if t0 < horizon then begin
          events := { Event.at = t0; action = Event.Fail; link = l } :: !events;
          if t1 < horizon then
            events :=
              { Event.at = t1; action = Event.Repair; link = l } :: !events
        end
      in
      let rec merge cur = function
        | [] -> emit cur
        | (t0, t1) :: rest ->
          let c0, c1 = cur in
          if t0 <= c1 then merge (c0, Float.max c1 t1) rest
          else begin
            emit cur;
            merge (t0, t1) rest
          end
      in
      match ws with [] -> () | w :: rest -> merge w rest)
    links;
  Event.normalize !events

let flap g ~links ~period ~duty ~seed ~horizon =
  let candidates = Array.of_list (Graph.core_links g) in
  if Array.length candidates = 0 then Ok []
  else begin
    let master = Prng.of_int seed in
    Prng.shuffle master candidates;
    let n = min links (Array.length candidates) in
    let streams = Prng.split_n master n in
    let windows = ref [] in
    for i = 0 to n - 1 do
      let link = candidates.(i) in
      let phase = Prng.float streams.(i) *. period in
      let c = ref 0 in
      let continue = ref true in
      while !continue do
        let t0 = phase +. (float_of_int !c *. period) in
        if t0 >= horizon then continue := false
        else begin
          windows := (link, t0, t0 +. (duty *. period)) :: !windows;
          incr c
        end
      done
    done;
    Ok (events_of_windows ~horizon !windows)
  end

let regional g ~groups ~mtbf ~mttr ~seed ~horizon =
  let groups = min groups (Graph.n_nodes g) in
  match Topo.Partition.make g ~regions:groups with
  | exception Invalid_argument msg -> Error ("regional: " ^ msg)
  | p ->
    let srlg =
      Array.init groups (fun r ->
          List.filter
            (fun id ->
              let l = Graph.link g id in
              p.Topo.Partition.region_of.(l.Graph.ep0.Graph.node) = r
              && p.Topo.Partition.region_of.(l.Graph.ep1.Graph.node) = r)
            (Graph.core_links g))
    in
    let master = Prng.of_int seed in
    let windows = ref [] in
    let t = ref (Prng.exponential master ~mean:mtbf) in
    while !t < horizon do
      let r = Prng.int master groups in
      List.iter (fun id -> windows := (id, !t, !t +. mttr) :: !windows) srlg.(r);
      t := !t +. Prng.exponential master ~mean:mtbf
    done;
    Ok (events_of_windows ~horizon !windows)

(* --- the adversarial scheduler --- *)

let plan_links g (plan : Kar.Route.plan) =
  List.filter_map
    (fun (r : Rns.residue) ->
      match Graph.node_of_label g r.Rns.modulus with
      | exception Not_found -> None
      | v ->
        (match Graph.link_at g v r.Rns.value with
         | exception Invalid_argument _ -> None
         | l -> Some l.Graph.id))
    plan.Kar.Route.residues

let default_pairs g =
  let edges =
    List.sort
      (fun a b -> Int.compare (Graph.label g a) (Graph.label g b))
      (Graph.edge_nodes g)
  in
  let rec pairs acc = function
    | [] -> List.rev acc
    | u :: rest ->
      pairs (List.rev_append (List.map (fun v -> (u, v)) rest) acc) rest
  in
  let all = pairs [] edges in
  List.filteri (fun i _ -> i < 8) all

let connected g ~downs pairs =
  let usable (l : Graph.link) = not (List.mem l.Graph.id downs) in
  List.for_all
    (fun (src, dst) -> Topo.Paths.shortest_path g ~usable src dst <> None)
    pairs

let adversarial g ~pairs ~k ~period ~hold ~level ~horizon =
  let pairs = match pairs with Some ps -> ps | None -> default_pairs g in
  if pairs = [] then Error "adversarial: no edge pairs to track"
  else begin
    let windows = ref [] in
    let down = ref [] in
    (* (link, repair time) *)
    let t = ref period in
    while !t < horizon do
      down := List.filter (fun (_, until) -> until > !t) !down;
      let downs = List.map fst !down in
      let usable (l : Graph.link) = not (List.mem l.Graph.id downs) in
      let score = Hashtbl.create 32 in
      let bump w lid =
        Hashtbl.replace score lid
          (w + (try Hashtbl.find score lid with Not_found -> 0))
      in
      List.iter
        (fun (src, dst) ->
          (* the plan the serving control plane would install on the
             surviving topology: the same [protected_route] call *)
          match Kar.Controller.protected_route ~usable g ~src ~dst ~level with
          | exception Invalid_argument _ -> ()
          | plan ->
            (* every residue is a dependency (protection tree membership);
               links carrying the primary path weigh heavier — they are
               what the flow rides right now *)
            List.iter (bump 1) (plan_links g plan);
            let ppath = Topo.Paths.path_links g plan.Kar.Route.core_path in
            List.iter (bump 8) ppath;
            (* one-step lookahead: if a primary link died, the best detour
               is where local backups / replans / standby paths would send
               the flow — its links are dependencies too *)
            List.iter
              (fun dead ->
                let usable' (l : Graph.link) =
                  usable l && l.Graph.id <> dead
                in
                match
                  Kar.Controller.route ~usable:usable' g ~src ~dst
                    ~protection:[]
                with
                | exception Invalid_argument _ -> ()
                | alt ->
                  List.iter (bump 4)
                    (Topo.Paths.path_links g alt.Kar.Route.core_path))
              ppath)
        pairs;
      let candidates =
        Hashtbl.fold (fun lid s acc -> (lid, s) :: acc) score []
        |> List.filter (fun (lid, _) -> not (List.mem lid downs))
        |> List.sort (fun (l1, s1) (l2, s2) ->
               match Int.compare s2 s1 with
               | 0 -> Int.compare l1 l2
               | c -> c)
      in
      let budget = ref (k - List.length !down) in
      List.iter
        (fun (lid, _) ->
          if
            !budget > 0
            && connected g ~downs:(lid :: List.map fst !down) pairs
          then begin
            down := (lid, !t +. hold) :: !down;
            windows := (lid, !t, !t +. hold) :: !windows;
            decr budget
          end)
        candidates;
      t := !t +. period
    done;
    Ok (events_of_windows ~horizon !windows)
  end

let resolve_events g evs =
  let* resolved =
    List.fold_left
      (fun acc (at, action, link) ->
        let* acc = acc in
        let* link =
          match link with
          | Spec.Id id ->
            if id >= 0 && id < Graph.n_links g then Ok id
            else Error (Printf.sprintf "events: no link #%d in this topology" id)
          | Spec.Between (a, b) ->
            (match Graph.link_between_labels g a b with
             | id -> Ok id
             | exception Not_found ->
               Error (Printf.sprintf "events: %d-%d is not a link" a b))
        in
        Ok ({ Event.at; action; link } :: acc))
      (Ok []) evs
  in
  Ok (Event.normalize resolved)

let generate g ~horizon ?pairs spec =
  if horizon <= 0.0 then Error "scenario horizon must be positive"
  else
    match spec with
    | Spec.Flap { links; period; duty; seed } ->
      flap g ~links ~period ~duty ~seed ~horizon
    | Spec.Regional { groups; mtbf; mttr; seed } ->
      regional g ~groups ~mtbf ~mttr ~seed ~horizon
    | Spec.Adversarial { k; period; hold; level } ->
      adversarial g ~pairs ~k ~period ~hold ~level ~horizon
    | Spec.Events evs -> resolve_events g evs

let compile g ~horizon ?pairs ~explicit scenario =
  let* explicit = resolve_events g explicit in
  let* generated =
    match scenario with
    | None -> Ok []
    | Some spec -> generate g ~horizon ?pairs spec
  in
  Ok (Event.normalize (explicit @ generated))

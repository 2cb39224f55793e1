module Graph = Topo.Graph

type step = {
  hop : int * int;
  score_before : float;
  score_after : float;
  bits_after : int;
}

type result = {
  plan : Route.plan;
  steps : step list;
  score : float;
}

let score g ~plan ~policy ~failures ~src ~dst =
  List.fold_left
    (fun worst link ->
      Stdlib.min worst
        (Markov.analyze g ~plan ~policy ~failed:[ link ] ~src ~dst)
          .Markov.p_delivered)
    1.0 failures

(* Every off-path switch's hop on the shortest-path tree toward the
   plan's egress switch. *)
let candidates g plan =
  let dest =
    match List.rev plan.Route.core_path with
    | last :: _ -> last
    | [] -> invalid_arg "Optimizer: empty plan path"
  in
  let members = Protection.off_path_members g ~path:plan.Route.core_path ~radius:max_int in
  Protection.tree_hops g ~dest members

let optimize g ~plan ~policy ~failures ~src ~dst ~bits =
  let evaluate plan = score g ~plan ~policy ~failures ~src ~dst in
  let rec loop plan current steps remaining =
    (* try every remaining hop; keep the best strict improvement *)
    let best =
      List.fold_left
        (fun best hop ->
          let candidate = Route.protect_skipping ~max_bits:bits g plan [ hop ] in
          if candidate == plan then best
          else begin
            let s = evaluate candidate in
            match best with
            | Some (_, _, best_score) when best_score >= s -> best
            | _ when s > current +. 1e-12 -> Some (hop, candidate, s)
            | _ -> best
          end)
        None remaining
    in
    match best with
    | None -> (plan, current, List.rev steps)
    | Some (hop, better, s) ->
      let step =
        {
          hop;
          score_before = current;
          score_after = s;
          bits_after = better.Route.bit_length;
        }
      in
      loop better s (step :: steps) (List.filter (fun h -> h <> hop) remaining)
  in
  let initial = evaluate plan in
  let plan, final, steps = loop plan initial [] (candidates g plan) in
  { plan; steps; score = final }

module Net = Netsim.Net
module Graph = Topo.Graph
module Nets = Topo.Nets

type t =
  | Deflection
  | Controller_reroute of float
  | Ingress_failover of float

let reroute g ~src ~dst ~failed =
  let usable l = not (failed l.Graph.id) in
  match Kar.Controller.route ~usable g ~src ~dst ~protection:[] with
  | plan -> Some plan
  | exception Invalid_argument _ -> None

let plan_avoiding g plans ~failed =
  List.find_opt
    (fun plan ->
      not (List.exists failed (Topo.Paths.path_links g plan.Kar.Route.core_path)))
    plans

(* Re-stamp [flow] with [during] (if any) once the reaction delay has
   passed, and with [after] at repair. *)
let restamp net flow ~at ~repair_at ~during ~after =
  let set (plan : Kar.Route.plan) () =
    Tcp.Flow.set_fwd_route flow plan.Kar.Route.route_id
  in
  Option.iter (fun plan -> Net.schedule_admin net ~at (set plan)) during;
  Net.schedule_admin net ~at:repair_at (set after)

let arm net sc ~flow ~link ~at ~repair_at reaction =
  let g = sc.Nets.graph and src = sc.Nets.ingress and dst = sc.Nets.egress in
  let failed id = id = link in
  match reaction with
  | Deflection -> ()
  | Controller_reroute delay ->
    restamp net flow ~at:(at +. delay) ~repair_at
      ~during:(reroute g ~src ~dst ~failed)
      ~after:(Kar.Controller.scenario_plan sc Kar.Controller.Unprotected)
  | Ingress_failover delay ->
    (match Kar.Controller.disjoint_plans g ~src ~dst ~k:2 with
     | [] -> invalid_arg "Reaction.arm: ingress and egress are disconnected"
     | primary :: _ as plans ->
       restamp net flow ~at:(at +. delay) ~repair_at
         ~during:(plan_avoiding g plans ~failed)
         ~after:primary)

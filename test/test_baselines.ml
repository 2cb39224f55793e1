(* Tests for the comparison baselines: stateful fast failover (primary +
   precomputed backup per destination) and the ingress reactions —
   controller-notification rerouting and 1+1 failover. *)

module Engine = Netsim.Engine
module Net = Netsim.Net
module Graph = Topo.Graph
module Nets = Topo.Nets

let test_table_size () =
  Alcotest.(check int) "net15 has 3 destinations" 3
    (Baselines.Fast_failover.table_size Nets.net15.Nets.graph)

let test_hops_healthy () =
  let sc = Nets.net15 in
  match
    Baselines.Fast_failover.hops_between sc.Nets.graph sc.Nets.ingress
      sc.Nets.egress ~failed:[]
  with
  | Some h -> Alcotest.(check int) "follows shortest (4 switches)" 4 h
  | None -> Alcotest.fail "healthy network must route"

let test_hops_single_failure () =
  let sc = Nets.net15 in
  List.iter
    (fun fc ->
      match
        Baselines.Fast_failover.hops_between sc.Nets.graph sc.Nets.ingress
          sc.Nets.egress ~failed:[ fc.Nets.link ]
      with
      | Some h ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: detour longer or equal" fc.Nets.name)
          true (h >= 4)
      | None ->
        Alcotest.failf "%s: single failure must be survivable" fc.Nets.name)
    sc.Nets.failures

(* net15 under fast failover with [link] down from t=0: the ingress and
   egress edges installed, [delivered] counting arrivals at the egress. *)
let ff_net ?detection_delay_s link =
  let sc = Nets.net15 in
  let engine = Engine.create () in
  let net = Net.create ~graph:sc.Nets.graph ~engine ?detection_delay_s () in
  Baselines.Fast_failover.install net;
  let delivered = ref 0 in
  Netsim.Karnet.install_edge net sc.Nets.egress ~reencode:(fun _ -> None)
    ~receive:(fun _ _ -> incr delivered)
    ();
  Netsim.Karnet.install_edge net sc.Nets.ingress ~reencode:(fun _ -> None)
    ~receive:(fun _ _ -> ())
    ();
  Net.fail_link net link;
  let send ~at =
    ignore
      (Engine.schedule_at engine at (fun () ->
           let p =
             Netsim.Packet.make ~uid:(Net.fresh_uid net) ~src:sc.Nets.ingress
               ~dst:sc.Nets.egress ~size_bytes:1000 ~route_id:Bignum.Z.zero
               ~born:at Netsim.Packet.Raw
           in
           Net.inject net ~at:sc.Nets.ingress p))
  in
  (engine, net, send, delivered)

(* SW37-SW43 carries fast failover's shortest-path route from ingress to
   egress (none of net15's named failure cases does). *)
let ff_primary_link () = Graph.link_between_labels Nets.net15.Nets.graph 37 43

let test_simulated_failover_delivers () =
  let engine, _, send, delivered = ff_net (ff_primary_link ()) in
  for _ = 1 to 10 do
    send ~at:0.0
  done;
  Engine.run engine;
  Alcotest.(check int) "all delivered around the failure" 10 !delivered

let test_failover_waits_for_detection () =
  (* The switch keeps its primary until it has observed the failure:
     packets sent inside the 50 ms detection window black-hole on the dead
     link, packets sent after it take the backup. *)
  let engine, net, send, delivered =
    ff_net ~detection_delay_s:0.05 (ff_primary_link ())
  in
  for i = 0 to 9 do
    send ~at:(float_of_int i *. 0.001)
  done;
  for _ = 1 to 10 do
    send ~at:0.1
  done;
  Engine.run engine;
  Alcotest.(check int) "only post-detection packets delivered" 10 !delivered;
  Alcotest.(check int) "in-window packets lost on the dead link" 10
    (Net.stats net).Net.dropped_link_down

let test_failover_is_stateful () =
  (* the scheme cannot forward to a destination absent from its table *)
  let sc = Nets.net15 in
  let engine = Engine.create () in
  let net = Net.create ~graph:sc.Nets.graph ~engine () in
  Baselines.Fast_failover.install net;
  (* address a packet to a core switch (not an edge): no table entry *)
  let p =
    Netsim.Packet.make ~uid:0 ~src:sc.Nets.ingress
      ~dst:(Graph.node_of_label sc.Nets.graph 53)
      ~size_bytes:1000 ~route_id:Bignum.Z.zero ~born:0.0 Netsim.Packet.Raw
  in
  Netsim.Karnet.install_edge net sc.Nets.ingress ~reencode:(fun _ -> None)
    ~receive:(fun _ _ -> ())
    ();
  Net.inject net ~at:sc.Nets.ingress p;
  Engine.run engine;
  Alcotest.(check int) "dropped for want of state" 1
    (Net.stats net).Net.dropped_no_route

let test_reroute_baseline_recovers_after_notification () =
  (* with no deflection, traffic dies at the failure and resumes once the
     controller installs the detour after its notification delay *)
  let sc = Nets.net15 in
  let fc = List.nth sc.Nets.failures 1 in
  let config =
    {
      Workload.Runner.default_timeline with
      policy = Workload.Runner.Kar Kar.Policy.No_deflection;
      level = Kar.Controller.Unprotected;
      failure = Some fc;
      pre_s = 1.0;
      fail_s = 2.0;
      post_s = 1.0;
      reaction = Workload.Runner.Controller_reroute 0.3;
    }
  in
  let r = Workload.Runner.timeline sc config in
  Alcotest.(check bool) "healthy before" true (r.Workload.Runner.mean_pre > 150.0);
  (* after the 0.3 s notification the detour carries traffic again *)
  Alcotest.(check bool)
    (Printf.sprintf "recovers during failure window (%.1f)" r.Workload.Runner.mean_fail)
    true
    (r.Workload.Runner.mean_fail > 50.0);
  Alcotest.(check bool) "back to normal after repair" true
    (r.Workload.Runner.mean_post > 150.0)

let test_reroute_slower_than_deflection () =
  (* the loss window costs the reroute baseline throughput that KAR's NIP
     does not lose — the paper's core claim *)
  let sc = Nets.net15 in
  let fc = List.nth sc.Nets.failures 1 in
  let run policy reaction =
    let config =
      {
        Workload.Runner.default_timeline with
        policy;
        level = Kar.Controller.Full;
        failure = Some fc;
        pre_s = 1.0;
        fail_s = 2.0;
        post_s = 1.0;
        reaction;
      }
    in
    (Workload.Runner.timeline sc config).Workload.Runner.mean_fail
  in
  let kar =
    run (Workload.Runner.Kar Kar.Policy.Not_input_port) Workload.Runner.Deflection
  in
  let reroute =
    run (Workload.Runner.Kar Kar.Policy.No_deflection)
      (Workload.Runner.Controller_reroute 0.5)
  in
  Alcotest.(check bool)
    (Printf.sprintf "KAR (%.0f) beats reroute (%.0f)" kar reroute)
    true (kar > reroute)

let test_edge_failover_plan_selection () =
  let sc = Nets.net15 in
  let g = sc.Nets.graph in
  let plans =
    Kar.Controller.disjoint_plans g ~src:sc.Nets.ingress ~dst:sc.Nets.egress ~k:2
  in
  match plans with
  | primary :: _ ->
    let on_primary = Topo.Paths.path_links g primary.Kar.Route.core_path in
    List.iter
      (fun link ->
        match Baselines.Reaction.plan_avoiding g plans ~failed:(( = ) link) with
        | Some p ->
          Alcotest.(check bool) "avoids the link" false
            (List.mem link (Topo.Paths.path_links g p.Kar.Route.core_path))
        | None -> Alcotest.fail "a disjoint backup must avoid the link")
      on_primary
  | [] -> Alcotest.fail "plans expected"

let test_edge_failover_recovers_fast () =
  let sc = Nets.net15 in
  let fc = List.nth sc.Nets.failures 1 in
  let r =
    Workload.Runner.timeline sc
      {
        Workload.Runner.default_timeline with
        policy = Workload.Runner.Kar Kar.Policy.No_deflection;
        level = Kar.Controller.Unprotected;
        failure = Some fc;
        pre_s = 1.0;
        fail_s = 2.0;
        post_s = 1.0;
        reaction = Workload.Runner.Ingress_failover 0.01;
      }
  in
  Alcotest.(check bool)
    (Printf.sprintf "fast recovery (%.1f during failure)" r.Workload.Runner.mean_fail)
    true
    (r.Workload.Runner.mean_fail > 150.0);
  Alcotest.(check bool) "post-repair fine" true (r.Workload.Runner.mean_post > 150.0)

let () =
  Alcotest.run "baselines"
    [
      ( "fast failover",
        [
          Alcotest.test_case "table size" `Quick test_table_size;
          Alcotest.test_case "healthy hops" `Quick test_hops_healthy;
          Alcotest.test_case "single-failure detours" `Quick test_hops_single_failure;
          Alcotest.test_case "simulated failover delivers" `Quick
            test_simulated_failover_delivers;
          Alcotest.test_case "failover waits for detection" `Quick
            test_failover_waits_for_detection;
          Alcotest.test_case "statefulness bites" `Quick test_failover_is_stateful;
        ] );
      ( "edge failover",
        [
          Alcotest.test_case "backup avoids failed link" `Quick
            test_edge_failover_plan_selection;
          Alcotest.test_case "recovers within the reaction delay" `Slow
            test_edge_failover_recovers_fast;
        ] );
      ( "controller reroute",
        [
          Alcotest.test_case "recovers after notification" `Slow
            test_reroute_baseline_recovers_after_notification;
          Alcotest.test_case "slower than deflection" `Slow
            test_reroute_slower_than_deflection;
        ] );
    ]

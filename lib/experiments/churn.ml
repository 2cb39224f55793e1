module Graph = Topo.Graph
module Nets = Topo.Nets
module Net = Netsim.Net
module Engine = Netsim.Engine
module Packet = Netsim.Packet
module Event = Kar_scenario.Event
module Spec = Kar_scenario.Spec
module Sgen = Kar_scenario.Gen
module Driver = Kar_scenario.Driver
module Server = Kar_service.Server
module Workload = Kar_service.Workload
module Z = Bignum.Z

type schedule = [ `Flap | `Regional | `Adversarial ]

let schedule_name = function
  | `Flap -> "flapping"
  | `Regional -> "regional"
  | `Adversarial -> "adversarial"

let spec_for = function
  | `Flap -> "flap:links=4,period=0.5,duty=0.4,seed=7"
  | `Regional -> "regional:groups=3,mtbf=0.6,mttr=0.25,seed=7"
  | `Adversarial -> "adversarial:k=2,period=0.5,hold=0.45,level=full"

let events_for sc ~horizon schedule =
  let spec =
    match Spec.parse (spec_for schedule) with
    | Ok s -> s
    | Error e -> invalid_arg ("Churn.events_for: " ^ e)
  in
  match
    Sgen.generate sc.Nets.graph ~horizon
      ~pairs:[ (sc.Nets.ingress, sc.Nets.egress) ]
      spec
  with
  | Ok evs -> evs
  | Error e -> invalid_arg ("Churn.events_for: " ^ e)

type technique = Kar | Fast_failover | Controller_reroute | One_plus_one

let technique_name = function
  | Kar -> "KAR full+NIP"
  | Fast_failover -> "fast failover"
  | Controller_reroute -> "ctl reroute"
  | One_plus_one -> "1+1 failover"

let all_techniques = [ Kar; Fast_failover; Controller_reroute; One_plus_one ]

type data_result = {
  sent : int;
  delivered : int;
  delivery_ratio : float;
  deflections : int;
  reencodes : int;
  dropped : int;
}

(* Controller-notification latency for the reroute baseline and the 1+1
   ingress's loss-of-signal detection window, in virtual seconds. *)
let reroute_notify_s = 0.05
let failover_detect_s = 0.01

type Packet.payload += Probe of int

let run_data sc ~events ~technique ?(regions = 0) ?recorder ~rate_pps
    ~duration_s ~seed () =
  if rate_pps <= 0 then invalid_arg "Churn.run_data: rate must be positive";
  let g = sc.Nets.graph in
  let net =
    if regions <= 1 then Net.create ~graph:g ~engine:(Engine.create ()) ()
    else
      Net.create_partitioned ~graph:g
        ~partition:(Topo.Partition.make g ~regions)
        ()
  in
  Net.set_recorder net recorder;
  let ingress = sc.Nets.ingress and egress = sc.Nets.egress in
  (* The current route ID the ingress stamps — a cell the reroute / 1+1
     reactions update from the admin (barrier) context. *)
  let current = ref Z.zero in
  let reencode_of v =
    match technique with
    | Kar ->
      (* precomputed, immutable: stranded-packet replans from every edge
         toward the egress, so sharded edge handlers share no mutable
         controller state *)
      let fresh =
        if v = egress then None
        else
          match Kar.Controller.route g ~src:v ~dst:egress ~protection:[] with
          | plan -> Some plan.Kar.Route.route_id
          | exception Invalid_argument _ -> None
      in
      fun (_ : Packet.t) -> fresh
    | Fast_failover | Controller_reroute | One_plus_one -> fun _ -> None
  in
  (* The ingress baselines learn of each event [delay] late, track the
     links they believe down, and re-stamp with [replan]'s route when
     there is one. *)
  let replan_after ~delay replan =
    let failed = Hashtbl.create 8 in
    List.iter
      (fun (e : Event.t) ->
        Net.schedule_admin net ~at:(e.Event.at +. delay) (fun () ->
            (match e.Event.action with
             | Event.Fail -> Hashtbl.replace failed e.Event.link ()
             | Event.Repair -> Hashtbl.remove failed e.Event.link);
            Option.iter
              (fun plan -> current := plan.Kar.Route.route_id)
              (replan (Hashtbl.mem failed))))
      (Event.normalize events)
  in
  (match technique with
   | Kar ->
     let plan = Kar.Controller.scenario_plan sc Kar.Controller.Full in
     current := plan.Kar.Route.route_id;
     Netsim.Karnet.install_switches ~plan net ~policy:Kar.Policy.Not_input_port
       ~seed
   | Fast_failover ->
     current := Z.of_int 1;
     Baselines.Fast_failover.install net
   | Controller_reroute ->
     let base = Kar.Controller.route g ~src:ingress ~dst:egress ~protection:[] in
     current := base.Kar.Route.route_id;
     Netsim.Karnet.install_switches net ~policy:Kar.Policy.No_deflection ~seed;
     replan_after ~delay:reroute_notify_s (fun failed ->
         Baselines.Reaction.reroute g ~src:ingress ~dst:egress ~failed)
   | One_plus_one ->
     let plans = Kar.Controller.disjoint_plans g ~src:ingress ~dst:egress ~k:2 in
     (match plans with
      | [] -> invalid_arg "Churn.run_data: no route between ingress and egress"
      | first :: _ -> current := first.Kar.Route.route_id);
     Netsim.Karnet.install_switches net ~policy:Kar.Policy.No_deflection ~seed;
     replan_after ~delay:failover_detect_s (fun failed ->
         Baselines.Reaction.plan_avoiding g plans ~failed));
  List.iter
    (fun v ->
      Netsim.Karnet.install_edge net v ~reencode:(reencode_of v)
        ~receive:(fun _ _ -> ())
        ())
    (Graph.edge_nodes g);
  Driver.arm net events;
  let interval = 1.0 /. float_of_int rate_pps in
  let sent = ref 0 in
  let rec emit t () =
    incr sent;
    let packet =
      Net.alloc net ~src:ingress ~dst:egress ~size_bytes:1500
        ~route_id:!current (Probe !sent)
    in
    Net.inject net ~at:ingress packet;
    let next = t +. interval in
    if next <= duration_s then
      ignore (Engine.schedule_at (Net.engine net) next (emit next))
  in
  Net.schedule_at_node net ingress ~at:interval (emit interval);
  Net.run_until net (duration_s +. 2.0);
  Option.iter Trace.Recorder.flush recorder;
  let ns = Net.stats net in
  {
    sent = !sent;
    delivered = ns.Net.delivered;
    delivery_ratio =
      (if !sent = 0 then 0.0
       else float_of_int ns.Net.delivered /. float_of_int !sent);
    deflections = ns.Net.deflections;
    reencodes = ns.Net.reencodes;
    dropped =
      ns.Net.dropped_link_down + ns.Net.dropped_queue_full
      + ns.Net.dropped_no_route + ns.Net.dropped_ttl;
  }

let run_control g ~events ~requests ~rate ~seed =
  let spec = { Workload.default with Workload.n = requests; rate; seed } in
  let reqs = Workload.generate g spec in
  let server = Server.create ~graph:g () in
  Server.run server ~failures:(Event.to_failures events) reqs

let fixture_lines () =
  let sc = Nets.net15 in
  Event.to_jsonl_lines sc.Nets.graph (events_for sc ~horizon:3.0 `Flap)

let pct v = Printf.sprintf "%5.1f%%" (100.0 *. v)

let to_string ?(profile = Profile.from_env ()) ?(metrics = false) () =
  let paper = profile.Profile.name = "paper" in
  let duration_s = profile.Profile.cbr_duration_s +. 1.0 in
  let rate_pps = if paper then 2000 else 500 in
  let requests = if paper then 20_000 else 4_000 in
  let seed = 42 in
  let topos = [ ("net15", Nets.net15); ("rnp28", Nets.rnp28) ] in
  let schedules = [ `Flap; `Regional; `Adversarial ] in
  let cells =
    List.concat_map
      (fun (tname, sc) ->
        let events sch = events_for sc ~horizon:duration_s sch in
        List.concat_map
          (fun sch ->
            List.map (fun tech -> (tname, sc, sch, events sch, tech)) all_techniques)
          schedules)
      topos
  in
  (* every data run is independent and internally seeded: fan them out on
     the pool, order restored on join *)
  let data =
    Util.Pool.run (Array.of_list cells)
      ~f:(fun ~idx:_ (_, sc, _, events, tech) ->
        run_data sc ~events ~technique:tech ~rate_pps ~duration_s ~seed ())
  in
  let result tname sch tech =
    let rec find i = function
      | [] -> invalid_arg "Churn.to_string: missing cell"
      | (tn, _, sc_, _, te) :: rest ->
        if tn = tname && sc_ = sch && te = tech then data.(i)
        else find (i + 1) rest
    in
    find 0 cells
  in
  let b = Buffer.create 4096 in
  Buffer.add_string b
    "Churn: KAR vs baselines under sustained failure schedules\n";
  Buffer.add_string b
    (Printf.sprintf
       "(CBR %d pps for %.0f s; schedules: %s | %s | %s)\n\n" rate_pps
       duration_s (spec_for `Flap) (spec_for `Regional) (spec_for `Adversarial));
  Buffer.add_string b "Delivery ratio under churn\n";
  Buffer.add_string b
    (Util.Texttab.render
       ~header:
         ("topology" :: "schedule"
         :: List.map technique_name all_techniques)
       (List.concat_map
          (fun (tname, _) ->
            List.map
              (fun sch ->
                tname :: schedule_name sch
                :: List.map
                     (fun tech -> pct (result tname sch tech).delivery_ratio)
                     all_techniques)
              schedules)
          topos));
  Buffer.add_string b "\nKAR data-plane reactions (full protection, NIP)\n";
  Buffer.add_string b
    (Util.Texttab.render
       ~header:[ "topology"; "schedule"; "deflections"; "re-encodes"; "drops" ]
       (List.concat_map
          (fun (tname, _) ->
            List.map
              (fun sch ->
                let r = result tname sch Kar in
                [
                  tname;
                  schedule_name sch;
                  string_of_int r.deflections;
                  string_of_int r.reencodes;
                  string_of_int r.dropped;
                ])
              schedules)
          topos));
  (* control plane: the same streams as the server's failure schedule *)
  let control =
    List.concat_map
      (fun (tname, sc) ->
        List.map
          (fun sch ->
            let events = events_for sc ~horizon:duration_s sch in
            let rate = float_of_int requests /. duration_s in
            ( tname,
              sch,
              List.length events,
              run_control sc.Nets.graph ~events ~requests ~rate ~seed ))
          schedules)
      topos
  in
  Buffer.add_string b
    "\nControl plane under the same streams (replan storms)\n";
  Buffer.add_string b
    (Util.Texttab.render
       ~header:
         [
           "topology"; "schedule"; "events"; "epochs"; "p99 (ms)"; "stale rate";
           "stale served"; "planned"; "hit ratio";
         ]
       (List.map
          (fun (tname, sch, n_events, (r : Server.report)) ->
            [
              tname;
              schedule_name sch;
              string_of_int n_events;
              string_of_int r.Server.epoch;
              Printf.sprintf "%.3f" (r.Server.p99 *. 1e3);
              pct r.Server.stale_rate;
              string_of_int r.Server.stale_completions;
              string_of_int r.Server.planned;
              pct r.Server.hit_ratio;
            ])
          control));
  if metrics then begin
    (* one representative run with the full instrumentation surface:
       scenario/* counters on the net registry plus per-event spans *)
    let sc = Nets.net15 in
    let events = events_for sc ~horizon:duration_s `Adversarial in
    let spans = Kar_obs.Span.create () in
    let engine = Engine.create () in
    let net = Net.create ~graph:sc.Nets.graph ~engine () in
    let plan = Kar.Controller.scenario_plan sc Kar.Controller.Full in
    Netsim.Karnet.install_switches ~plan net ~policy:Kar.Policy.Not_input_port
      ~seed;
    List.iter
      (fun v ->
        Netsim.Karnet.install_edge net v
          ~reencode:(fun _ -> None)
          ~receive:(fun _ _ -> ())
          ())
      (Graph.edge_nodes sc.Nets.graph);
    Driver.arm net ~spans events;
    (* a probe flow rides the schedule so the netsim/* counters show the
       deflection/re-encode reactions, not an idle net *)
    let interval = duration_s /. 256.0 in
    let rec emit t () =
      let p =
        Net.alloc net ~src:sc.Nets.ingress ~dst:sc.Nets.egress ~size_bytes:1500
          ~route_id:plan.Kar.Route.route_id Netsim.Packet.Raw
      in
      Net.inject net ~at:sc.Nets.ingress p;
      let next = t +. interval in
      if next <= duration_s then ignore (Engine.schedule_at engine next (emit next))
    in
    ignore (Engine.schedule_at engine interval (emit interval));
    Net.run_until net (duration_s +. 1.0);
    Buffer.add_string b "\n-- metrics (net15, adversarial, KAR) --\n";
    Buffer.add_string b (Kar_obs.Export.summary (Net.registry net));
    Buffer.add_string b (Kar_obs.Span.summary spans)
  end;
  Buffer.contents b

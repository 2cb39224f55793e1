module Graph = Topo.Graph

type case = {
  topology : string;
  failure : string;
  level : Kar.Controller.level;
  policy : Kar.Policy.t;
  packets : int;
  delivered : int;
  events : int;
  violations : Trace.Invariant.violation list;
}

(* Delivery is the paper's claim only for full protection with a
   deterministic deflection technique: HP random-walks deflected packets
   (no driven deflection ever fires for it), and the no-deflection baseline
   drops on the first dead port. *)
let expect_delivery level policy =
  level = Kar.Controller.Full
  && (policy = Kar.Policy.Any_valid_port || policy = Kar.Policy.Not_input_port)

let failure_name g id =
  let l = Graph.link g id in
  Printf.sprintf "SW%d-SW%d"
    (Graph.label g l.Graph.ep0.Graph.node)
    (Graph.label g l.Graph.ep1.Graph.node)

(* One traced simulation: [packets] packets ingress->egress over the
   scenario plan, [link] down from t=0, run to drain.  Returns the case
   record and the full event list. *)
let run_case ~topology (sc : Topo.Nets.scenario) ~link ~level ~policy ~packets
    ~seed =
  let g = sc.Topo.Nets.graph in
  let engine = Netsim.Engine.create () in
  let net = Netsim.Net.create ~graph:g ~engine () in
  let plan = Kar.Controller.scenario_plan sc level in
  let protected_switches =
    List.map (fun r -> r.Rns.modulus) plan.Kar.Route.residues
  in
  let recorder = Trace.Recorder.create ~protected_switches () in
  Netsim.Net.set_recorder net (Some recorder);
  (* The sweep runs with the residue cache on; the differential test in
     test_trace re-runs cases with it off and diffs the JSONL. *)
  Netsim.Karnet.install_switches ~plan net ~policy ~seed;
  let cache = Kar.Controller.create_cache g in
  List.iter
    (fun v ->
      Netsim.Karnet.install_edge net v
        ~reencode:(fun (p : Netsim.Packet.t) ->
          Kar.Controller.reencode cache ~at:v ~dst:(Netsim.Packet.dst p))
        ~receive:(fun _ _ -> ())
        ())
    (Graph.edge_nodes g);
  Netsim.Net.fail_link net link;
  for i = 0 to packets - 1 do
    ignore
      (Netsim.Engine.schedule_at engine
         (float_of_int i *. 1e-3)
         (fun () ->
           let packet =
             Netsim.Packet.make
               ~uid:(Netsim.Net.fresh_uid net)
               ~src:sc.Topo.Nets.ingress ~dst:sc.Topo.Nets.egress
               ~size_bytes:512 ~route_id:plan.Kar.Route.route_id
               ~born:(Netsim.Engine.now engine) Netsim.Packet.Raw
           in
           Netsim.Net.inject net ~at:sc.Topo.Nets.ingress packet))
  done;
  Netsim.Engine.run engine;
  let events = Trace.Recorder.contents recorder in
  let violations =
    Trace.Invariant.check ~drained:true
      ~expect_delivery:(expect_delivery level policy)
      events
  in
  ( {
      topology;
      failure = failure_name g link;
      level;
      policy;
      packets;
      delivered = (Netsim.Net.stats net).Netsim.Net.delivered;
      events = List.length events;
      violations;
    },
    events )

let scenarios =
  [ ("net15", Topo.Nets.net15); ("rnp28", Topo.Nets.rnp28) ]

let run ?(packets = 4) ?(seed = 42) () =
  List.concat_map
    (fun (topology, sc) ->
      List.concat_map
        (fun link ->
          List.concat_map
            (fun level ->
              List.map
                (fun policy ->
                  fst
                    (run_case ~topology sc ~link ~level ~policy ~packets ~seed))
                Kar.Policy.all)
            Kar.Controller.all_levels)
        (Graph.core_links sc.Topo.Nets.graph))
    scenarios

let to_string ?(packets = 4) ?(seed = 42) () =
  let cases = run ~packets ~seed () in
  (* Aggregate per (topology, level, policy): the per-link detail only
     matters when something is wrong. *)
  let keys =
    List.concat_map
      (fun (topology, _) ->
        List.concat_map
          (fun level ->
            List.map (fun policy -> (topology, level, policy)) Kar.Policy.all)
          Kar.Controller.all_levels)
      scenarios
  in
  let body =
    List.map
      (fun (topology, level, policy) ->
        let cs =
          List.filter
            (fun c ->
              c.topology = topology && c.level = level && c.policy = policy)
            cases
        in
        let sum f = List.fold_left (fun acc c -> acc + f c) 0 cs in
        [
          topology;
          Kar.Controller.level_to_string level;
          Kar.Policy.to_string policy;
          string_of_int (List.length cs);
          string_of_int (sum (fun c -> c.packets));
          string_of_int (sum (fun c -> c.delivered));
          string_of_int (sum (fun c -> List.length c.violations));
          (if expect_delivery level policy then "yes" else "-");
        ])
      keys
  in
  let header =
    [
      "Topology"; "Protection"; "Technique"; "Failures"; "Injected";
      "Delivered"; "Violations"; "Delivery required";
    ]
  in
  let detail =
    List.concat_map
      (fun c ->
        List.map
          (fun v ->
            Printf.sprintf "  %s %s %s %s: %s" c.topology c.failure
              (Kar.Controller.level_to_string c.level)
              (Kar.Policy.to_string c.policy)
              (Format.asprintf "%a" Trace.Invariant.pp_violation v))
          c.violations)
      cases
  in
  Printf.sprintf
    "Invariant sweep: every single core-link failure x policy x protection \
     (%d packets/case, seed %d)\n"
    packets seed
  ^ Util.Texttab.render ~header body
  ^ (match detail with
     | [] -> "All invariants hold.\n"
     | lines -> "Violations:\n" ^ String.concat "\n" lines ^ "\n")

let canonical_trace which =
  match which with
  | `Fig1 ->
    let sc = Topo.Nets.fig1_six in
    let fc = List.hd sc.Topo.Nets.failures in
    snd
      (run_case ~topology:"fig1" sc ~link:fc.Topo.Nets.link
         ~level:Kar.Controller.Partial ~policy:Kar.Policy.Not_input_port
         ~packets:2 ~seed:7)
  | `Net15 ->
    let sc = Topo.Nets.net15 in
    let fc = List.nth sc.Topo.Nets.failures 1 in
    snd
      (run_case ~topology:"net15" sc ~link:fc.Topo.Nets.link
         ~level:Kar.Controller.Full ~policy:Kar.Policy.Not_input_port
         ~packets:3 ~seed:11)

(* The exhaustive k-failure resilience verifier.

   The verifier evaluates the data plane's own Kar.Policy.choose at every
   state, so there is no second copy of the forwarding semantics to pin;
   its verdicts are pinned to the simulator instead: k=1
   verdicts are checked against the empirical invariants sweep
   (directionally: adversarial Guaranteed implies empirical delivery;
   adversarial no-delivery implies empirical zero delivery), and refuted
   verdicts replay through Netsim.Engine to reproduce the predicted
   violation.  The golden fixture pins the whole net15 k<=2 verdict table
   byte-for-byte at any -j. *)

module Graph = Topo.Graph
module Nets = Topo.Nets
module Verifier = Kar_verify.Verifier
module Counterexample = Kar_verify.Counterexample
module Verify = Experiments.Verify

let nip = Kar.Policy.Not_input_port

(* --- the regression for wide switches ---

   The gen:32 service testbed has core switches of degree 19; tables
   materialised per (mask, in_port, deflected) would need 2^19 * 20 * 2
   cells per switch per plan.  Preparing an instance and sweeping every
   single-link failure of one fully protected pair must stay small. *)

let test_gen32_prepare_memory () =
  let g = Experiments.Service.testbed ~n_core:32 () in
  (* the first pair whose fully protected plan fits the route-ID budget *)
  let src, dst, plan =
    let rec first = function
      | [] -> Alcotest.fail "no fully protected pair on gen:32"
      | (src, dst) :: rest ->
        (match
           Kar.Controller.protected_route g ~src ~dst ~level:Kar.Controller.Full
         with
         | plan -> (src, dst, plan)
         | exception Invalid_argument _ -> first rest)
    in
    first
      (List.concat_map
         (fun src ->
           List.filter_map
             (fun dst -> if src <> dst then Some (src, dst) else None)
             (Graph.edge_nodes g))
         (Graph.edge_nodes g))
  in
  Gc.full_major ();
  let heap0 = (Gc.quick_stat ()).Gc.heap_words in
  let inst = Verifier.prepare g ~plan ~policy:nip ~src ~dst () in
  let verdicts =
    List.map
      (fun failed -> fst (Verifier.verify inst ~failed))
      (Verify.failure_sets (Verify.core_links g) ~k:1)
  in
  Gc.full_major ();
  let grown_mb =
    float_of_int (((Gc.quick_stat ()).Gc.heap_words - heap0) * (Sys.word_size / 8))
    /. 1048576.0
  in
  Alcotest.(check bool) "swept every single-link failure" true (verdicts <> []);
  Alcotest.(check bool)
    (Printf.sprintf "live heap grew %.1f MB (< 64 MB)" grown_mb)
    true (grown_mb < 64.0);
  ignore (Sys.opaque_identity inst)

(* --- empirical replay harness (mirrors Invariants.run_case) --- *)

let empirical g ~plan ~policy ~src ~dst ~failed ~packets ~seed =
  let engine = Netsim.Engine.create () in
  let net = Netsim.Net.create ~graph:g ~engine () in
  let protected_switches =
    List.map (fun r -> r.Rns.modulus) plan.Kar.Route.residues
  in
  let recorder = Trace.Recorder.create ~protected_switches () in
  Netsim.Net.set_recorder net (Some recorder);
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
  List.iter (fun l -> Netsim.Net.fail_link net l) failed;
  for i = 0 to packets - 1 do
    ignore
      (Netsim.Engine.schedule_at engine
         (float_of_int i *. 1e-3)
         (fun () ->
           let packet =
             Netsim.Packet.make
               ~uid:(Netsim.Net.fresh_uid net)
               ~src ~dst ~size_bytes:512 ~route_id:plan.Kar.Route.route_id
               ~born:(Netsim.Engine.now engine) Netsim.Packet.Raw
           in
           Netsim.Net.inject net ~at:src packet))
  done;
  Netsim.Engine.run engine;
  ((Netsim.Net.stats net).Netsim.Net.delivered, Trace.Recorder.contents recorder)

(* --- k=1 agreement with the empirical invariants sweep ---

   Adversarial verdicts are directional w.r.t. randomized simulation:
   Guaranteed means every resolution of the deflection draws delivers, so
   the simulator must deliver everything cleanly; no-delivery (Loop or
   Blackhole) means no resolution delivers, so the simulator must deliver
   nothing.  Policy_dependent constrains neither direction (the verifier's
   adversary can force failing draw sequences that have probability ~0 in
   the seeded simulation). *)

let test_k1_agreement () =
  let cases = Experiments.Invariants.run () in
  let scenarios = [ ("net15", Nets.net15); ("rnp28", Nets.rnp28) ] in
  let instances = Hashtbl.create 8 in
  let instance_of topology policy =
    match Hashtbl.find_opt instances (topology, policy) with
    | Some i -> i
    | None ->
      let sc = List.assoc topology scenarios in
      let plan = Kar.Controller.scenario_plan sc Kar.Controller.Full in
      let i =
        Verifier.prepare sc.Nets.graph ~plan ~policy ~src:sc.Nets.ingress
          ~dst:sc.Nets.egress ()
      in
      Hashtbl.add instances (topology, policy) i;
      i
  in
  let checked = ref 0 in
  List.iter
    (fun (c : Experiments.Invariants.case) ->
      if
        c.Experiments.Invariants.level = Kar.Controller.Full
        && (c.Experiments.Invariants.policy = Kar.Policy.Any_valid_port
           || c.Experiments.Invariants.policy = nip)
      then begin
        let sc = List.assoc c.Experiments.Invariants.topology scenarios in
        let g = sc.Nets.graph in
        let link =
          match
            String.split_on_char '-' c.Experiments.Invariants.failure
          with
          | [ a; b ] ->
            let label s = int_of_string (String.sub s 2 (String.length s - 2)) in
            Graph.link_between_labels g (label a) (label b)
          | _ -> Alcotest.failf "unparsable failure %s" c.Experiments.Invariants.failure
        in
        let inst =
          instance_of c.Experiments.Invariants.topology
            c.Experiments.Invariants.policy
        in
        let cls, outcome = Verifier.verify inst ~failed:[ link ] in
        incr checked;
        if cls = Verifier.Guaranteed then begin
          Alcotest.(check int)
            (Printf.sprintf "%s %s %s: Guaranteed => all delivered"
               c.Experiments.Invariants.topology
               c.Experiments.Invariants.failure
               (Kar.Policy.to_string c.Experiments.Invariants.policy))
            c.Experiments.Invariants.packets
            c.Experiments.Invariants.delivered;
          Alcotest.(check int) "Guaranteed => no violations" 0
            (List.length c.Experiments.Invariants.violations)
        end;
        if not outcome.Verifier.can_deliver then
          Alcotest.(check int)
            (Printf.sprintf "%s %s: no-delivery verdict => nothing delivered"
               c.Experiments.Invariants.topology
               c.Experiments.Invariants.failure)
            0 c.Experiments.Invariants.delivered
      end)
    cases;
  (* both topologies, every core link, two policies *)
  Alcotest.(check bool) "agreement covered the sweep" true (!checked >= 120)

(* --- full-protection single-failure claim, decided ---

   The paper's Fig. 5/7 claim at k=1, in adversarial form: under full
   protection every single core-link failure leaves delivery at least
   possible (no Loop/Blackhole/Disconnected verdicts at k=1) for every
   edge pair of both topologies. *)

let test_k1_no_refutation_of_possibility () =
  List.iter
    (fun r ->
      List.iter
        (fun (p : Verify.pair_report) ->
          let row = p.Verify.per_k.(0) in
          let count cls =
            let rec index i = function
              | [] -> assert false
              | c :: rest -> if c = cls then i else index (i + 1) rest
            in
            row.(index 0 Verifier.all_classifications)
          in
          List.iter
            (fun cls ->
              Alcotest.(check int)
                (Printf.sprintf "%s %d->%d k=1 %s" r.Verify.topology
                   p.Verify.src p.Verify.dst
                   (Verifier.classification_to_string cls))
                0 (count cls))
            [ Verifier.Loop; Verifier.Blackhole; Verifier.Disconnected ];
          Alcotest.(check bool)
            (Printf.sprintf "%s %d->%d k=1 angelic" r.Verify.topology
               p.Verify.src p.Verify.dst)
            true
            (p.Verify.ang_k >= 1))
        r.Verify.pairs)
    (Verify.run ())

(* --- counterexample replay ---

   Every counterexample the net15 k<=2 sweep emits must machine-check
   (delivery refuted on a structurally clean trace), and the no-delivery
   classes (Loop/Blackhole) must reproduce empirically: simulating the
   same plan under the same failure set delivers nothing and the live
   trace itself fails the delivery invariant. *)

let test_counterexamples_machine_check () =
  let r = Verify.run_topology ~name:"net15" Nets.net15 ~max_k:2 ~policy:nip () in
  Alcotest.(check bool) "at least one counterexample" true
    (r.Verify.counterexamples <> []);
  List.iter
    (fun (cx : Verify.counterexample) ->
      let what = Verifier.classification_to_string cx.Verify.cx_class in
      Alcotest.(check bool)
        (what ^ ": delivery refuted")
        true
        (Counterexample.refutes cx.Verify.cx_violations);
      Alcotest.(check bool)
        (what ^ ": trace structurally clean")
        true
        (Counterexample.well_formed cx.Verify.cx_violations);
      (* the trace round-trips through the on-disk JSONL format *)
      List.iter
        (fun e ->
          match Trace.Event.of_jsonl (Trace.Event.to_jsonl e) with
          | Ok e' ->
            Alcotest.(check bool) (what ^ ": jsonl roundtrip") true (e = e')
          | Error m -> Alcotest.failf "%s: jsonl parse failed: %s" what m)
        cx.Verify.cx_events;
      (* and through the compact binary format, losslessly and in order *)
      (match
         Trace.Binary.decode_string
           (Trace.Binary.encode_events cx.Verify.cx_events)
       with
       | Ok events ->
         Alcotest.(check bool)
           (what ^ ": binary roundtrip")
           true
           (events = cx.Verify.cx_events)
       | Error m -> Alcotest.failf "%s: binary decode failed: %s" what m))
    r.Verify.counterexamples

let test_no_delivery_verdicts_replay_empirically () =
  let g = Nets.net15.Nets.graph in
  let links = Verify.core_links g in
  let pairs =
    List.concat_map
      (fun src ->
        List.filter_map
          (fun dst -> if src <> dst then Some (src, dst) else None)
          (Graph.edge_nodes g))
      (Graph.edge_nodes g)
  in
  let replayed = ref 0 in
  List.iter
    (fun (src, dst) ->
      let plan =
        Kar.Controller.protected_route g ~src ~dst ~level:Kar.Controller.Full
      in
      let inst = Verifier.prepare g ~plan ~policy:nip ~src ~dst () in
      List.iter
        (fun failed ->
          let _, outcome = Verifier.verify inst ~failed in
          if not outcome.Verifier.can_deliver then begin
            incr replayed;
            let delivered, events =
              empirical g ~plan ~policy:nip ~src ~dst ~failed ~packets:4
                ~seed:11
            in
            let what =
              Printf.sprintf "%d->%d failed=%s" (Graph.label g src)
                (Graph.label g dst)
                (String.concat ","
                   (List.map string_of_int (failed :> int list)))
            in
            Alcotest.(check int)
              (what ^ ": engine delivers nothing")
              0 delivered;
            let violations =
              Trace.Invariant.check ~expect_delivery:true ~drained:true events
            in
            Alcotest.(check bool)
              (what ^ ": live trace fails the delivery invariant")
              true
              (List.exists
                 (fun (v : Trace.Invariant.violation) ->
                   v.Trace.Invariant.invariant = "delivery")
                 violations)
          end)
        (Verify.failure_sets links ~k:2))
    pairs;
  (* the sweep currently refutes delivery for at least one k=2 set *)
  Alcotest.(check bool) "replayed at least one no-delivery verdict" true
    (!replayed >= 1)

(* --- golden fixture --- *)

let fixture_path = "fixtures/verify_net15_k2.jsonl"

let lines_at_jobs jobs =
  Util.Pool.set_jobs jobs;
  let out = Verify.fixture_lines () in
  Util.Pool.set_jobs (Util.Pool.default_jobs ());
  out

let test_fixture_jobs_invariant () =
  let at1 = lines_at_jobs 1 and at8 = lines_at_jobs 8 in
  Alcotest.(check (list string)) "fixture byte-identical at -j 1 and -j 8"
    at1 at8

let test_fixture_matches_disk () =
  let ic = open_in fixture_path in
  let n = in_channel_length ic in
  let disk = really_input_string ic n in
  close_in ic;
  let fresh = String.concat "\n" (Verify.fixture_lines ()) ^ "\n" in
  Alcotest.(check string) "verify_net15_k2.jsonl is current" disk fresh

(* --- per-switch structure of a prepared instance --- *)

let test_compiler_structure () =
  let sc = Nets.net15 in
  let g = sc.Nets.graph in
  let plan = Kar.Controller.scenario_plan sc Kar.Controller.Full in
  let inst =
    Verifier.prepare g ~plan ~policy:nip ~src:sc.Nets.ingress
      ~dst:sc.Nets.egress ()
  in
  List.iter
    (fun v ->
      let switch_id = Graph.label g v in
      let degree = Graph.degree g v in
      let primary = inst.Verifier.primary.(0).(v) in
      Alcotest.(check int) "primary is the modulo answer"
        (Kar.Policy.computed_port ~switch_id ~route_id:plan.Kar.Route.route_id)
        primary;
      (* all-ports-live, fresh packet: a protected on-path switch forwards
         out its planned residue port *)
      let choice =
        Kar.Policy.choose nip ~computed:primary ~in_port:(-1) ~deflected:false
          ~degree
          ~live:(Kar.Policy.mask_of_failures g ~node:v ~failed:(fun _ -> false))
      in
      if choice < 0 then
        Alcotest.(check bool) "forward port within degree" true
          (lnot choice < degree)
      else
        (* off-path switches may legitimately deflect or drop a fresh
           packet: their modulo answer is arbitrary *)
        Alcotest.(check bool) "off the plan" true
          (primary >= degree || not (Kar.Route.is_protected plan switch_id)))
    (Graph.core_nodes g);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "residue switch %d 'protected'" r.Rns.modulus)
        true
        (Kar.Route.is_protected plan r.Rns.modulus))
    plan.Kar.Route.residues

let () =
  Alcotest.run "verify"
    [
      ( "compiler",
        [
          Alcotest.test_case "structure (net15 full plan)" `Quick
            test_compiler_structure;
        ] );
      ( "verifier",
        [
          Alcotest.test_case "gen:32 prepare + k=1 sweep stays small" `Quick
            test_gen32_prepare_memory;
          Alcotest.test_case "k=1 agreement with invariants sweep" `Quick
            test_k1_agreement;
          Alcotest.test_case "k=1 keeps delivery possible (both topologies)"
            `Quick test_k1_no_refutation_of_possibility;
        ] );
      ( "counterexamples",
        [
          Alcotest.test_case "machine-checked (net15 k<=2)" `Quick
            test_counterexamples_machine_check;
          Alcotest.test_case "no-delivery verdicts replay empirically" `Quick
            test_no_delivery_verdicts_replay_empirically;
        ] );
      ( "fixture",
        [
          Alcotest.test_case "byte-identical at -j 1 and -j 8" `Quick
            test_fixture_jobs_invariant;
          Alcotest.test_case "matches the checked-in file" `Quick
            test_fixture_matches_disk;
        ] );
    ]

(* Tests for the failure-scenario engine (lib/scenario): spec grammar
   round-trips, well-formedness of generated streams, the adversarial
   scheduler's dependency targeting and connectivity invariant, driver
   instrumentation, and byte-identical determinism of churn runs across
   pool widths and region counts. *)

module Graph = Topo.Graph
module Nets = Topo.Nets
module Event = Kar_scenario.Event
module Spec = Kar_scenario.Spec
module Gen = Kar_scenario.Gen
module Driver = Kar_scenario.Driver
module Registry = Kar_obs.Registry
module Churn = Experiments.Churn
module Pool = Util.Pool

let net15 = Nets.net15
let rnp28 = Nets.rnp28

let generate_exn g ~horizon ?pairs spec =
  match Gen.generate g ~horizon ?pairs spec with
  | Ok evs -> evs
  | Error e -> Alcotest.failf "generate: %s" e

(* --- spec grammar --- *)

let test_spec_round_trip () =
  List.iter
    (fun s ->
      match Spec.parse s with
      | Error e -> Alcotest.failf "parse %S: %s" s e
      | Ok spec ->
        Alcotest.(check string) (Printf.sprintf "%S round-trips" s) s
          (Spec.to_string spec))
    [
      "flap:links=4,period=0.5,duty=0.4,seed=7";
      "regional:groups=3,mtbf=0.6,mttr=0.25,seed=7";
      "adversarial:k=2,period=0.5,hold=0.45,level=full";
      "events:fail@0.5=7-13,repair@0.8=7-13,fail@1.2=#12";
    ]

let test_spec_defaults () =
  (* a bare model name parses to the documented defaults *)
  (match Spec.parse "flap" with
   | Ok (Spec.Flap { links = 4; period = 0.5; duty = 0.4; seed = 7 }) -> ()
   | _ -> Alcotest.fail "bare flap should parse to its defaults");
  match Spec.parse "adversarial:k=3" with
  | Ok (Spec.Adversarial { k = 3; level = Kar.Controller.Full; _ }) -> ()
  | _ -> Alcotest.fail "adversarial:k=3 should keep the other defaults"

let test_spec_errors () =
  List.iter
    (fun s ->
      match Spec.parse s with
      | Ok _ -> Alcotest.failf "%S should not parse" s
      | Error _ -> ())
    [
      "meteor:strike=1";
      "flap:links=0";
      "flap:duty=1.5";
      "flap:period=zero";
      "regional:mttr=-1";
      "adversarial:level=max";
      "events:";
      "events:explode@1=#0";
      "events:fail@1=7:13";
    ]

(* [Spec.parse] reads a command-line argument: on any string it returns
   [Ok] or [Error], never raises.  Strings are built from the grammar's
   own tokens, so most get past the model name. *)
let prop_parse_never_raises =
  let tokens =
    [ "flap"; "regional"; "adversarial"; "events"; ":"; ","; "="; "@"; "-";
      "#"; "links"; "period"; "duty"; "seed"; "groups"; "mtbf"; "mttr"; "k";
      "hold"; "level"; "full"; "partial"; "unprotected"; "fail"; "repair";
      "0"; "1"; "7"; "-1"; "0.5"; "1e9"; "nan"; "inf"; "0x1F";
      "99999999999999999999"; ""; " " ]
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:2000 ~name:"parse never raises on token strings"
       ~print:(Printf.sprintf "%S")
       QCheck2.Gen.(
         map (String.concat "") (list_size (0 -- 20) (oneofl tokens)))
       (fun s -> match Spec.parse s with Ok _ | Error _ -> true))

(* Any spec [parse] can return survives [to_string |> parse], floats
   included. *)
let gen_spec =
  let open QCheck2.Gen in
  let positive = 1 -- 1_000_000 in
  (* shrinking moves floats towards 0, which no positive field accepts *)
  let pfloat = map (fun x -> if x > 0.0 then x else 1.0) pfloat in
  let duty = float_range 1e-6 (1.0 -. 1e-6) in
  let link =
    oneof
      [ map (fun id -> Spec.Id id) int;
        map2 (fun a b -> Spec.Between (a, b)) nat nat ]
  in
  oneof
    [ map (fun ((links, period), (duty, seed)) ->
          Spec.Flap { links; period; duty; seed })
        (pair (pair positive pfloat) (pair duty int));
      map (fun ((groups, mtbf), (mttr, seed)) ->
          Spec.Regional { groups; mtbf; mttr; seed })
        (pair (pair positive pfloat) (pair pfloat int));
      map (fun ((k, period), (hold, level)) ->
          Spec.Adversarial { k; period; hold; level })
        (pair (pair positive pfloat)
           (pair pfloat (oneofl Kar.Controller.all_levels)));
      map (fun evs -> Spec.Events evs)
        (list_size (1 -- 5)
           (triple pfloat (oneofl [ Event.Fail; Event.Repair ]) link)) ]

let prop_spec_round_trip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:1000 ~name:"to_string |> parse is the identity"
       ~print:Spec.to_string gen_spec (fun spec ->
         Spec.parse (Spec.to_string spec) = Ok spec))

(* --- stream well-formedness --- *)

let alternates_per_link evs =
  let state = Hashtbl.create 16 in
  List.for_all
    (fun (e : Event.t) ->
      let down = try Hashtbl.find state e.Event.link with Not_found -> false in
      let ok =
        match e.Event.action with Event.Fail -> not down | Event.Repair -> down
      in
      Hashtbl.replace state e.Event.link (e.Event.action = Event.Fail);
      ok)
    evs

let test_flap_well_formed () =
  let g = net15.Nets.graph in
  let spec = Spec.Flap { links = 3; period = 0.4; duty = 0.5; seed = 7 } in
  let evs = generate_exn g ~horizon:2.0 spec in
  Alcotest.(check bool) "stream is non-empty" true (evs <> []);
  Alcotest.(check bool) "every event is before the horizon" true
    (List.for_all (fun (e : Event.t) -> e.Event.at < 2.0) evs);
  Alcotest.(check bool) "normalized order" true
    (List.equal (fun a b -> Event.compare a b = 0) evs (Event.normalize evs));
  Alcotest.(check bool) "per link, fail and repair strictly alternate" true
    (alternates_per_link evs);
  Alcotest.(check bool) "only core-core links flap" true
    (List.for_all
       (fun (e : Event.t) ->
         let l = Graph.link g e.Event.link in
         Graph.is_core g l.Graph.ep0.Graph.node
         && Graph.is_core g l.Graph.ep1.Graph.node)
       evs)

let test_flap_seeded () =
  let g = rnp28.Nets.graph in
  let gen seed =
    generate_exn g ~horizon:2.0
      (Spec.Flap { links = 4; period = 0.5; duty = 0.4; seed })
  in
  Alcotest.(check bool) "same seed reproduces the stream" true
    (gen 7 = gen 7);
  Alcotest.(check bool) "different seeds give different streams" true
    (gen 7 <> gen 8)

let test_regional_srlg () =
  let g = rnp28.Nets.graph in
  let groups = 3 in
  let evs =
    generate_exn g ~horizon:3.0
      (Spec.Regional { groups; mtbf = 0.4; mttr = 0.2; seed = 7 })
  in
  Alcotest.(check bool) "stream is non-empty" true (evs <> []);
  Alcotest.(check bool) "alternates per link" true (alternates_per_link evs);
  (* shared-risk groups: every failed link is internal to one region of
     the same partition the generator used *)
  let p = Topo.Partition.make g ~regions:groups in
  Alcotest.(check bool) "every event link is intra-region" true
    (List.for_all
       (fun (e : Event.t) ->
         let l = Graph.link g e.Event.link in
         p.Topo.Partition.region_of.(l.Graph.ep0.Graph.node)
         = p.Topo.Partition.region_of.(l.Graph.ep1.Graph.node))
       evs);
  (* a regional outage takes a whole group down at one instant *)
  let fails_at t =
    List.filter
      (fun (e : Event.t) -> e.Event.action = Event.Fail && e.Event.at = t)
      evs
  in
  match List.find_opt (fun (e : Event.t) -> e.Event.action = Event.Fail) evs with
  | None -> Alcotest.fail "expected at least one failure"
  | Some first ->
    Alcotest.(check bool) "first outage hits more than one link" true
      (List.length (fails_at first.Event.at) > 1)

(* --- the adversarial scheduler --- *)

let test_adversarial_targets_dependencies () =
  let g = rnp28.Nets.graph in
  let src = rnp28.Nets.ingress and dst = rnp28.Nets.egress in
  let spec =
    Spec.Adversarial
      { k = 2; period = 0.5; hold = 0.45; level = Kar.Controller.Unprotected }
  in
  let evs = generate_exn g ~horizon:3.0 ~pairs:[ (src, dst) ] spec in
  Alcotest.(check bool) "stream is non-empty" true (evs <> []);
  (* at unprotected level the dependency set of the tracked pair is
     computable here with public APIs: the base plan's residue links, its
     primary path, and the best detour around each primary link *)
  let plan = Kar.Controller.route g ~src ~dst ~protection:[] in
  let ppath = Topo.Paths.path_links g plan.Kar.Route.core_path in
  let detours =
    List.concat_map
      (fun dead ->
        let usable (l : Graph.link) = l.Graph.id <> dead in
        match Kar.Controller.route ~usable g ~src ~dst ~protection:[] with
        | exception Invalid_argument _ -> []
        | alt -> Topo.Paths.path_links g alt.Kar.Route.core_path)
      ppath
  in
  let deps = Gen.plan_links g plan @ ppath @ detours in
  let first =
    List.find (fun (e : Event.t) -> e.Event.action = Event.Fail) evs
  in
  Alcotest.(check bool)
    "first target is in the tracked pair's dependency set" true
    (List.mem first.Event.link deps)

let test_adversarial_never_disconnects () =
  let g = rnp28.Nets.graph in
  let src = rnp28.Nets.ingress and dst = rnp28.Nets.egress in
  let spec =
    Spec.Adversarial
      { k = 3; period = 0.4; hold = 0.35; level = Kar.Controller.Full }
  in
  let evs = generate_exn g ~horizon:3.0 ~pairs:[ (src, dst) ] spec in
  Alcotest.(check bool) "stream is non-empty" true (evs <> []);
  List.iter
    (fun (e : Event.t) ->
      let downs = Event.links_down evs ~at:e.Event.at in
      let usable (l : Graph.link) = not (List.mem l.Graph.id downs) in
      Alcotest.(check bool)
        (Printf.sprintf "pair still connected just after t=%g" e.Event.at)
        true
        (Topo.Paths.shortest_path g ~usable src dst <> None))
    evs

(* --- explicit events and the degenerate CLI path --- *)

let test_events_to_failures () =
  let g = net15.Nets.graph in
  let link = net15.Nets.failures |> List.hd |> fun fc -> fc.Nets.link in
  (* the schedule kar_serve compiles repeatable --fail-at/--repair-at
     flags into: a degenerate explicit-events scenario *)
  let spec =
    Spec.Events
      [
        (0.5, Event.Fail, Spec.Id link);
        (0.8, Event.Repair, Spec.Id link);
        (1.2, Event.Fail, Spec.Id link);
      ]
  in
  let evs = generate_exn g ~horizon:2.0 spec in
  Alcotest.(check bool) "to_failures matches the hand-built schedule" true
    (Event.to_failures evs
    = [ (0.5, `Fail link); (0.8, `Repair link); (1.2, `Fail link) ]);
  (* endpoint-label references resolve to the same link ids *)
  let l = Graph.link g link in
  let a = Graph.label g l.Graph.ep0.Graph.node
  and b = Graph.label g l.Graph.ep1.Graph.node in
  let evs' =
    generate_exn g ~horizon:2.0
      (Spec.Events [ (0.5, Event.Fail, Spec.Between (a, b)) ])
  in
  Alcotest.(check bool) "A-B resolves to the same link as #ID" true
    (match evs' with
     | [ e ] -> e.Event.link = link
     | _ -> false);
  (* unknown links are reported, not silently dropped *)
  match Gen.generate g ~horizon:2.0 (Spec.Events [ (0.1, Event.Fail, Spec.Id 9999) ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "out-of-range link id should be an error"

(* --- driver instrumentation --- *)

let test_driver_counters () =
  let g = net15.Nets.graph in
  let engine = Netsim.Engine.create () in
  let net = Netsim.Net.create ~graph:g ~engine () in
  let evs =
    Event.normalize
      [
        { Event.at = 0.10; action = Event.Fail; link = 0 };
        { Event.at = 0.12; action = Event.Fail; link = 0 };
        (* no-op: already down *)
        { Event.at = 0.15; action = Event.Fail; link = 1 };
        { Event.at = 0.20; action = Event.Repair; link = 0 };
        { Event.at = 0.25; action = Event.Repair; link = 1 };
      ]
  in
  Driver.arm net evs;
  Netsim.Net.run_until net 0.5;
  let r = Netsim.Net.registry net in
  Alcotest.(check int) "all events delivered" 5 (Registry.read r "scenario/events");
  Alcotest.(check int) "effective down transitions" 2
    (Registry.read r "scenario/flaps");
  Alcotest.(check int) "effective up transitions" 2
    (Registry.read r "scenario/repairs");
  Alcotest.(check int) "all links back up" 0
    (Registry.read r "scenario/links-down");
  Alcotest.(check int) "peak concurrent outages" 2
    (Registry.read r "scenario/max-links-down")

(* An event naming a link the graph lacks is refused when the stream is
   armed, by a message naming the id and the graph's link count, and no
   event of the stream fires. *)
let test_driver_unknown_link () =
  let g = net15.Nets.graph in
  let engine = Netsim.Engine.create () in
  let net = Netsim.Net.create ~graph:g ~engine () in
  let evs =
    [
      { Event.at = 0.10; action = Event.Fail; link = 0 };
      { Event.at = 0.20; action = Event.Fail; link = 9999 };
    ]
  in
  (match Driver.arm net evs with
   | () -> Alcotest.fail "a stream naming link 9999 was armed"
   | exception Invalid_argument msg ->
     List.iter
       (fun affix ->
         Alcotest.(check bool)
           (Printf.sprintf "%S names %s" msg affix)
           true
           (Astring.String.is_infix ~affix msg))
       [ "9999"; Printf.sprintf "%d links" (Graph.n_links g) ]);
  Netsim.Net.run_until net 0.5;
  Alcotest.(check bool) "link 0 never failed" true (Netsim.Net.link_up net 0);
  Alcotest.(check int) "no admin event pending or run" 0
    (Netsim.Engine.processed engine)

(* --- determinism: pool width and region count --- *)

let at_jobs jobs f =
  Pool.set_jobs jobs;
  let out = f () in
  Pool.set_jobs (Pool.default_jobs ());
  out

let test_generation_deterministic_vs_jobs () =
  let gen () =
    List.map
      (fun sch -> Churn.events_for rnp28 ~horizon:2.0 sch)
      [ `Flap; `Regional; `Adversarial ]
  in
  Alcotest.(check bool) "event streams byte-identical at -j 1 and -j 8" true
    (at_jobs 1 gen = at_jobs 8 gen)

let trace_of_run sc ~events ~regions =
  let recorder = Trace.Recorder.create ~capacity:(1 lsl 18) () in
  let r =
    Churn.run_data sc ~events ~technique:Churn.Kar ~regions ~recorder
      ~rate_pps:300 ~duration_s:1.5 ~seed:42 ()
  in
  let lines =
    String.concat "\n"
      (List.map Trace.Event.to_jsonl (Trace.Recorder.contents recorder))
  in
  (r, lines)

let test_run_deterministic_vs_regions () =
  let events = Churn.events_for net15 ~horizon:1.5 `Flap in
  let r1, t1 = trace_of_run net15 ~events ~regions:0 in
  let r2, t2 = trace_of_run net15 ~events ~regions:2 in
  Alcotest.(check bool) "data results identical serial vs --regions 2" true
    (r1 = r2);
  Alcotest.(check bool) "flight records byte-identical serial vs --regions 2"
    true
    (String.equal t1 t2);
  Alcotest.(check bool) "the run actually delivered traffic" true
    (r1.Churn.delivered > 0)

let test_run_deterministic_vs_jobs () =
  let events = Churn.events_for net15 ~horizon:1.5 `Flap in
  let run () = trace_of_run net15 ~events ~regions:2 in
  Alcotest.(check bool) "sharded churn run identical at -j 1 and -j 8" true
    (at_jobs 1 run = at_jobs 8 run)

(* --- golden fixture --- *)

let test_fixture_matches () =
  let path =
    let f = "fixtures/churn_net15_flap.jsonl" in
    if Sys.file_exists f then f else Filename.concat "test" f
  in
  let ic = open_in_bin path in
  let golden = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check bool)
    "canonical churn stream byte-identical to committed fixture (regenerate \
     with test/gen_fixtures.exe after intentional changes)"
    true
    (String.equal golden (Churn.fixture_lines ()))

(* --- the point of the exercise: KAR survives the adversary better --- *)

let test_adversary_hurts_baselines_more () =
  let events = Churn.events_for rnp28 ~horizon:3.0 `Adversarial in
  let run technique =
    Churn.run_data rnp28 ~events ~technique ~rate_pps:300 ~duration_s:3.0
      ~seed:42 ()
  in
  let kar = run Churn.Kar and ff = run Churn.Fast_failover in
  Alcotest.(check bool)
    (Printf.sprintf
       "KAR out-delivers fast failover under the adversarial schedule \
        (%.3f vs %.3f)"
       kar.Churn.delivery_ratio ff.Churn.delivery_ratio)
    true
    (kar.Churn.delivery_ratio > ff.Churn.delivery_ratio +. 0.05)

let () =
  let t name f = Alcotest.test_case name `Quick f in
  Alcotest.run "scenario"
    [
      ( "spec",
        [
          t "round-trips" test_spec_round_trip;
          t "defaults" test_spec_defaults;
          t "errors" test_spec_errors;
          prop_parse_never_raises;
          prop_spec_round_trip;
        ] );
      ( "streams",
        [
          t "flap well-formed" test_flap_well_formed;
          t "flap seeded" test_flap_seeded;
          t "regional SRLG" test_regional_srlg;
        ] );
      ( "adversarial",
        [
          t "targets dependencies" test_adversarial_targets_dependencies;
          t "never disconnects" test_adversarial_never_disconnects;
          t "hurts baselines more" test_adversary_hurts_baselines_more;
        ] );
      ( "events",
        [ t "degenerate CLI schedule" test_events_to_failures ] );
      ( "driver",
        [
          t "counters" test_driver_counters;
          t "a link the graph lacks is refused up front" test_driver_unknown_link;
        ] );
      ( "determinism",
        [
          t "generation at -j1 = -j8" test_generation_deterministic_vs_jobs;
          t "run serial = --regions 2" test_run_deterministic_vs_regions;
          t "sharded run at -j1 = -j8" test_run_deterministic_vs_jobs;
          t "fixture" test_fixture_matches;
        ] );
    ]

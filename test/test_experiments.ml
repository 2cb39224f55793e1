(* Integration tests for the experiment harness: the paper-anchored facts
   every reproduction must preserve (Table 1's exact bit lengths, the
   worked example's route IDs, the exact deflection analyses behind the
   Fig. 7/8 narratives, and the Table 2 statelessness evidence), plus
   structural checks on the rendered outputs. *)

let contains ~affix s = Astring.String.is_infix ~affix s

(* --- fig1 --- *)

let test_fig1_values () =
  let r = Experiments.Fig1.run () in
  Alcotest.(check string) "R primary" "44" (Bignum.Z.to_string r.Experiments.Fig1.primary_route_id);
  Alcotest.(check string) "M primary" "308" (Bignum.Z.to_string r.Experiments.Fig1.primary_modulus);
  Alcotest.(check string) "R protected" "660" (Bignum.Z.to_string r.Experiments.Fig1.protected_route_id);
  Alcotest.(check string) "M protected" "1540" (Bignum.Z.to_string r.Experiments.Fig1.protected_modulus);
  Alcotest.(check (list int)) "ports" [ 0; 2; 0; 0 ] r.Experiments.Fig1.ports_of_660;
  Alcotest.(check int) "3 hops healthy" 3 r.Experiments.Fig1.healthy_hops;
  Alcotest.(check (float 1e-6)) "delivery 1.0 under failure" 1.0
    r.Experiments.Fig1.deflected_delivery;
  (* S->4->7->5->11->D: exactly one extra switch *)
  Alcotest.(check (float 1e-6)) "4 hops deflected" 4.0 r.Experiments.Fig1.deflected_hops

(* --- table 1 --- *)

let test_table1_matches_paper () =
  List.iter2
    (fun row (mech, bits, switches) ->
      Alcotest.(check string) "mechanism" mech row.Experiments.Table1.mechanism;
      Alcotest.(check int) "bits" bits row.Experiments.Table1.bit_length;
      Alcotest.(check int) "switches" switches row.Experiments.Table1.switches_in_route_id)
    (Experiments.Table1.rows ())
    Experiments.Table1.paper_values

let test_table1_rendering () =
  let s = Experiments.Table1.to_string () in
  List.iter
    (fun affix -> Alcotest.(check bool) affix true (contains ~affix s))
    [ "Unprotected"; "Partial protection"; "Full protection"; "15"; "28"; "43" ]

(* --- table 2 --- *)

let test_table2_matrix_matches_paper () =
  let kar = List.find (fun r -> r.Experiments.Table2.scheme = "KAR") Experiments.Table2.matrix in
  Alcotest.(check string) "multiple failures" "Yes" kar.Experiments.Table2.multiple_failures;
  Alcotest.(check string) "source routing" "Yes" kar.Experiments.Table2.source_routing;
  Alcotest.(check string) "stateless" "Stateless" kar.Experiments.Table2.core_state;
  Alcotest.(check int) "eight schemes" 8 (List.length Experiments.Table2.matrix)

let test_table2_evidence () =
  let e = Experiments.Table2.measure () in
  Alcotest.(check int) "KAR needs no core state" 0 e.Experiments.Table2.kar_table_entries;
  Alcotest.(check bool) "baseline needs state" true (e.Experiments.Table2.ff_table_entries > 0);
  Alcotest.(check bool) "sweep nonempty" true (e.Experiments.Table2.pairs_considered > 100);
  (* KAR must survive at least as many double failures as the single-backup
     baseline, and survive all of them on net15 *)
  Alcotest.(check int) "KAR survives all pairs" e.Experiments.Table2.pairs_considered
    e.Experiments.Table2.kar_survives;
  Alcotest.(check bool) "baseline misses some" true
    (e.Experiments.Table2.ff_survives <= e.Experiments.Table2.kar_survives)

(* --- the exact analyses behind fig 7 / fig 8 --- *)

let test_fig7_analysis_narrative () =
  let sc = Topo.Nets.rnp28 in
  let plan = Kar.Controller.scenario_plan sc Kar.Controller.Partial in
  let analyze fc_name =
    let fc = List.find (fun fc -> fc.Topo.Nets.name = fc_name) sc.Topo.Nets.failures in
    Kar.Markov.analyze sc.Topo.Nets.graph ~plan ~policy:Kar.Policy.Not_input_port
      ~failed:[ fc.Topo.Nets.link ] ~src:sc.Topo.Nets.ingress ~dst:sc.Topo.Nets.egress
  in
  (* SW7-SW13: deterministic detour, exactly one extra hop *)
  let a = analyze "SW7-SW13" in
  Alcotest.(check (float 1e-9)) "deterministic delivery" 1.0 a.Kar.Markov.p_delivered;
  Alcotest.(check (float 1e-6)) "5 hops (one extra)" 5.0 a.Kar.Markov.expected_hops_delivered;
  (* SW13-SW41: 2 of 5 alternatives driven; longest expected walk *)
  let b = analyze "SW13-SW41" in
  Alcotest.(check bool) "some re-encodes" true (b.Kar.Markov.p_stranded > 0.0);
  Alcotest.(check bool) "longest expected walk" true
    (b.Kar.Markov.expected_hops_delivered > a.Kar.Markov.expected_hops_delivered);
  (* SW41-SW73: both alternatives driven -> still delivery 1.0 *)
  let c = analyze "SW41-SW73" in
  Alcotest.(check (float 1e-9)) "both driven" 1.0 c.Kar.Markov.p_delivered;
  Alcotest.(check (float 1e-6)) "6.5 hops (5 or 7, 50/50, one visit)" 6.5
    c.Kar.Markov.expected_hops_delivered

let test_fig8_geometric_loop () =
  let r = Experiments.Fig8.run ~profile:{ Experiments.Profile.quick with
                                          Experiments.Profile.iperf_reps = 2;
                                          iperf_duration_s = 1.0;
                                          walk_trials = 5000 } () in
  (* escape probability 1/2 per visit, 4 hops per loop: E[hops] = 6 + 4 = 10 *)
  Alcotest.(check (float 0.01)) "E[hops] = 10" 10.0
    r.Experiments.Fig8.analysis.Kar.Markov.expected_hops_delivered;
  Alcotest.(check (float 1e-6)) "always delivered" 1.0
    r.Experiments.Fig8.analysis.Kar.Markov.p_delivered;
  (* histogram: mass at 6, 10, 14, ... and roughly halving *)
  let h = r.Experiments.Fig8.loop_hops_histogram in
  Alcotest.(check bool) "mass at 6" true (h.(6) > 0);
  Alcotest.(check bool) "mass at 10" true (h.(10) > 0);
  Alcotest.(check int) "nothing at 7" 0 h.(7);
  Alcotest.(check int) "nothing at 8" 0 h.(8);
  Alcotest.(check bool) "roughly halving" true
    (let ratio = float_of_int h.(10) /. float_of_int h.(6) in
     ratio > 0.4 && ratio < 0.65);
  Alcotest.(check bool) "throughput degrades" true (r.Experiments.Fig8.ratio < 0.9)

(* --- ablation tables render with content --- *)

let test_ablation_tables_render () =
  let hops = Experiments.Ablations.policy_hops_table () in
  List.iter
    (fun affix -> Alcotest.(check bool) affix true (contains ~affix hops))
    [ "net15"; "rnp28"; "nip"; "hp"; "P(del)" ];
  let ids = Experiments.Ablations.ids_table () in
  List.iter
    (fun affix -> Alcotest.(check bool) affix true (contains ~affix ids))
    [ "primes-ascending"; "prime-powers"; "ok" ];
  let budget = Experiments.Ablations.budget_table () in
  Alcotest.(check bool) "budget rows" true (contains ~affix:"43" budget)

let test_budget_ablation_monotone_delivery () =
  (* more protection bits must never hurt exact delivery probability *)
  let sc = Topo.Nets.net15 in
  let g = sc.Topo.Nets.graph in
  let fc = List.nth sc.Topo.Nets.failures 2 in
  let base = Kar.Controller.scenario_plan sc Kar.Controller.Unprotected in
  let dest = Topo.Graph.node_of_label g 29 in
  let hops =
    Kar.Protection.tree_hops g ~dest
      (Kar.Protection.off_path_members g
         ~path:(List.map (Topo.Graph.node_of_label g) sc.Topo.Nets.primary)
         ~radius:max_int)
  in
  let deliveries =
    List.map
      (fun bits ->
        let plan = Kar.Route.protect_skipping ~max_bits:bits g base hops in
        (Kar.Markov.analyze g ~plan ~policy:Kar.Policy.Not_input_port
           ~failed:[ fc.Topo.Nets.link ] ~src:sc.Topo.Nets.ingress
           ~dst:sc.Topo.Nets.egress)
          .Kar.Markov.p_delivered)
      [ 15; 43; 128 ]
  in
  match deliveries with
  | [ a; b; c ] ->
    Alcotest.(check bool) "15 <= 43" true (a <= b +. 1e-9);
    Alcotest.(check bool) "43 <= 128" true (b <= c +. 1e-9)
  | _ -> Alcotest.fail "three budgets"

(* --- scaling / multipath / congestion --- *)

let test_scaling_monotone_bits () =
  let rows = Experiments.Scaling.run () in
  Alcotest.(check int) "five sizes" 5 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check bool) "unprotected <= radius1" true
        (r.Experiments.Scaling.bits_unprotected <= r.Experiments.Scaling.bits_radius1);
      Alcotest.(check bool) "radius1 <= full" true
        (r.Experiments.Scaling.bits_radius1 <= r.Experiments.Scaling.bits_full);
      Alcotest.(check bool) "fits flag consistent" true
        (r.Experiments.Scaling.fits_header
         = (r.Experiments.Scaling.bits_full <= Wire.Header.max_route_bits)))
    rows

let test_congestion_shape () =
  let profile =
    { Experiments.Profile.quick with Experiments.Profile.iperf_duration_s = 1.5 }
  in
  let points = Experiments.Congestion.run ~profile () in
  Alcotest.(check int) "six points" 6 (List.length points);
  (* without failure, all policies behave identically (no deflection) *)
  let healthy =
    List.filter (fun p -> not p.Experiments.Congestion.failed) points
  in
  (match healthy with
   | first :: rest ->
     List.iter
       (fun p ->
         Alcotest.(check (float 0.5)) "identical healthy baseline"
           first.Experiments.Congestion.primary_mbps
           p.Experiments.Congestion.primary_mbps)
       rest
   | [] -> Alcotest.fail "no healthy points");
  (* both flows share the egress: each gets roughly half of 200 Mb/s *)
  List.iter
    (fun p ->
      Alcotest.(check bool) "fair share" true
        (p.Experiments.Congestion.primary_mbps > 60.0
         && p.Experiments.Congestion.primary_mbps < 140.0))
    healthy

(* --- random-topology agreement of the exact chain and Monte Carlo --- *)

let test_markov_walk_random_topologies () =
  (* generated graph, generated plan, one failed on-path link: the two
     analyses must agree within Monte-Carlo noise *)
  List.iter
    (fun seed ->
      let base = Topo.Gen.gnp ~n:12 ~p:0.3 ~seed in
      let g = Kar.Ids.assign base Kar.Ids.Primes_ascending in
      let cores = Topo.Graph.core_nodes g in
      let src_core = List.nth cores (seed mod List.length cores) in
      let dist, _ = Topo.Paths.bfs g src_core in
      let dst_core =
        List.fold_left
          (fun best v -> if dist.(v) > dist.(best) then v else best)
          src_core cores
      in
      if dst_core <> src_core then begin
        let g, hosts = Topo.Gen.with_edge_hosts g [ src_core; dst_core ] in
        let src, dst =
          match hosts with [ a; b ] -> (a, b) | _ -> assert false
        in
        let plan = Kar.Controller.route g ~src ~dst ~protection:[] in
        let failed =
          match Topo.Paths.path_links g plan.Kar.Route.core_path with
          | l :: _ -> [ l ]
          | [] -> []
        in
        let exact =
          Kar.Markov.analyze g ~plan ~policy:Kar.Policy.Not_input_port ~failed
            ~src ~dst
        in
        let mc =
          Kar.Walk.run g ~plan ~policy:Kar.Policy.Not_input_port ~failed ~src
            ~dst ~trials:8000 ~seed:(seed * 7)
        in
        Alcotest.(check (float 0.03))
          (Printf.sprintf "seed %d delivery" seed)
          exact.Kar.Markov.p_delivered mc.Kar.Walk.p_delivery
      end)
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

(* --- a fast end-to-end TCP smoke of fig4's key contrast --- *)

let test_fig4_contrast_none_vs_nip () =
  let sc = Topo.Nets.net15 in
  let fc = List.nth sc.Topo.Nets.failures 1 in
  let run policy =
    Workload.Runner.timeline sc
      {
        Workload.Runner.default_timeline with
        policy = Workload.Runner.Kar policy;
        level = Kar.Controller.Full;
        failure = Some fc;
        pre_s = 1.0;
        fail_s = 1.5;
        post_s = 0.5;
      }
  in
  let none = run Kar.Policy.No_deflection in
  let nip = run Kar.Policy.Not_input_port in
  Alcotest.(check bool) "no deflection stalls" true
    (none.Workload.Runner.mean_fail < 5.0);
  Alcotest.(check bool) "NIP keeps most of the goodput" true
    (nip.Workload.Runner.mean_fail > 100.0);
  Alcotest.(check int) "no deflections without failures... on the none plane" 0
    none.Workload.Runner.net_deflections;
  Alcotest.(check bool) "NIP deflects" true (nip.Workload.Runner.net_deflections > 0)

(* --- the experiment registry and its CLI typo suggestions --- *)

let test_registry_resolution () =
  let module R = Experiments.Registry in
  (match R.find "verify" with
  | `Entry e -> Alcotest.(check string) "verify is an entry" "verify" e.R.id
  | `Group _ | `Unknown -> Alcotest.fail "verify must resolve to an entry");
  (match R.find "verification" with
  | `Group g ->
    Alcotest.(check bool) "verification group carries verify" true
      (List.exists (fun (e : R.entry) -> e.R.id = "verify") g.R.entries);
    Alcotest.(check bool) "verification group carries invariants" true
      (List.exists (fun (e : R.entry) -> e.R.id = "invariants") g.R.entries)
  | `Entry _ | `Unknown ->
    Alcotest.fail "verification must resolve to a group");
  (match R.find "no-such-experiment" with
  | `Unknown -> ()
  | `Entry _ | `Group _ -> Alcotest.fail "nonsense name resolved");
  Alcotest.(check bool) "aliases are runnable names" true
    (List.mem "verification" R.names && List.mem "beyond" R.names);
  (* every id and alias resolves, and ids stay unique *)
  List.iter
    (fun n ->
      match R.find n with
      | `Unknown -> Alcotest.failf "registered name %s does not resolve" n
      | `Entry _ | `Group _ -> ())
    R.names;
  let ids = List.map (fun (e : R.entry) -> e.R.id) R.all in
  Alcotest.(check int) "ids unique"
    (List.length ids)
    (List.length (List.sort_uniq compare ids))

(* Near-misses on group aliases must suggest the alias — the suggestion
   search covers ids AND aliases (kar_experiments's unknown-id hint). *)
let test_registry_suggestions () =
  let module R = Experiments.Registry in
  List.iter
    (fun (typo, expect) ->
      let name, d = R.nearest typo in
      Alcotest.(check string)
        (Printf.sprintf "suggestion for %S" typo)
        expect name;
      Alcotest.(check bool)
        (Printf.sprintf "suggestion for %S within CLI threshold" typo)
        true
        (d <= max 2 (String.length typo / 2)))
    [
      ("verfy", "verify");
      ("verificaton", "verification");
      ("abblations", "ablations");
      ("invarients", "invariants");
      ("tabels", "tables");
    ];
  Alcotest.(check int) "edit distance kitten/sitting" 3
    (R.edit_distance "kitten" "sitting");
  Alcotest.(check int) "edit distance identity" 0
    (R.edit_distance "verify" "verify")

let () =
  Alcotest.run "experiments"
    [
      ( "fig1",
        [ Alcotest.test_case "worked example exact" `Quick test_fig1_values ] );
      ( "table1",
        [
          Alcotest.test_case "matches the paper" `Quick test_table1_matches_paper;
          Alcotest.test_case "rendering" `Quick test_table1_rendering;
        ] );
      ( "table2",
        [
          Alcotest.test_case "matrix as published" `Quick test_table2_matrix_matches_paper;
          Alcotest.test_case "measured evidence" `Slow test_table2_evidence;
        ] );
      ( "analysis narratives",
        [
          Alcotest.test_case "fig7 exact narrative" `Quick test_fig7_analysis_narrative;
          Alcotest.test_case "fig8 geometric loop" `Slow test_fig8_geometric_loop;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "tables render" `Slow test_ablation_tables_render;
          Alcotest.test_case "budget monotone delivery" `Quick
            test_budget_ablation_monotone_delivery;
        ] );
      ( "beyond the paper",
        [
          Alcotest.test_case "multi-failure certainty" `Slow
            (fun () ->
              let rows = Experiments.Multifailure.run ~samples:15 ~seed:5 () in
              List.iter
                (fun r ->
                  Alcotest.(check bool) "samples found" true
                    (r.Experiments.Multifailure.samples > 0);
                  (* on connected failure sets, NIP + re-encode always
                     delivers *)
                  Alcotest.(check (float 1e-6)) "certain delivery" 1.0
                    r.Experiments.Multifailure.kar_mean_delivery;
                  Alcotest.(check bool) "direct <= total" true
                    (r.Experiments.Multifailure.kar_mean_direct <= 1.0 +. 1e-9))
                rows);
          Alcotest.test_case "scaling bits monotone" `Slow test_scaling_monotone_bits;
          Alcotest.test_case "bystander congestion shape" `Slow test_congestion_shape;
          Alcotest.test_case "markov = walk on random topologies" `Slow
            test_markov_walk_random_topologies;
        ] );
      ( "tcp integration",
        [
          Alcotest.test_case "fig4 contrast none vs nip" `Slow
            test_fig4_contrast_none_vs_nip;
        ] );
      ( "registry",
        [
          Alcotest.test_case "names resolve" `Quick test_registry_resolution;
          Alcotest.test_case "typo suggestions cover group aliases" `Quick
            test_registry_suggestions;
        ] );
    ]

(* Tests for the workload layer: the PRNG and statistics utilities it leans
   on, the CBR generator's delivery accounting, and the TCP scenario
   runners' structural guarantees (determinism per seed, failure windows
   taking effect). *)

module Nets = Topo.Nets

let qtest ?(count = 200) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

(* --- prng --- *)

let test_prng_deterministic () =
  let a = Util.Prng.of_int 42 and b = Util.Prng.of_int 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Util.Prng.next a) (Util.Prng.next b)
  done

let test_prng_split_independent () =
  let parent = Util.Prng.of_int 42 in
  let c1 = Util.Prng.split parent in
  let c2 = Util.Prng.split parent in
  Alcotest.(check bool) "children differ" true
    (Util.Prng.next c1 <> Util.Prng.next c2)

let prop_prng_int_range =
  qtest "int within bounds"
    QCheck2.Gen.(pair (1 -- 1000) (0 -- 10_000))
    (fun (bound, seed) ->
      let g = Util.Prng.of_int seed in
      let v = Util.Prng.int g bound in
      v >= 0 && v < bound)

let test_prng_uniformity () =
  let g = Util.Prng.of_int 3 in
  let counts = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Util.Prng.int g 10 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      let share = float_of_int c /. float_of_int n in
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d share %.3f" i share)
        true
        (Float.abs (share -. 0.1) < 0.01))
    counts

let test_prng_float_range () =
  let g = Util.Prng.of_int 9 in
  for _ = 1 to 1000 do
    let v = Util.Prng.float g in
    Alcotest.(check bool) "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_prng_shuffle_permutes () =
  let g = Util.Prng.of_int 5 in
  let arr = Array.init 20 (fun i -> i) in
  Util.Prng.shuffle g arr;
  let sorted = Array.copy arr in
  Array.sort Stdlib.compare sorted;
  Alcotest.(check (array int)) "same elements" (Array.init 20 (fun i -> i)) sorted

(* --- stats --- *)

let test_stats_known () =
  let s = Util.Stats.summarize [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  Alcotest.(check (float 1e-9)) "mean" 5.0 s.Util.Stats.mean;
  Alcotest.(check (float 1e-3)) "stddev (sample)" 2.138 s.Util.Stats.stddev;
  Alcotest.(check int) "n" 8 s.Util.Stats.n;
  Alcotest.(check (float 1e-9)) "min" 2.0 s.Util.Stats.min;
  Alcotest.(check (float 1e-9)) "max" 9.0 s.Util.Stats.max

let test_stats_ci_single () =
  let s = Util.Stats.summarize [ 5.0 ] in
  Alcotest.(check (float 1e-9)) "no CI for one sample" 0.0 s.Util.Stats.ci95

let test_stats_t_table () =
  Alcotest.(check (float 1e-3)) "df=1" 12.706 (Util.Stats.t_critical_95 1);
  Alcotest.(check (float 1e-3)) "df=29 (30 reps)" 2.045 (Util.Stats.t_critical_95 29);
  Alcotest.(check (float 1e-3)) "df large" 1.96 (Util.Stats.t_critical_95 1000)

(* --- texttab --- *)

let test_texttab_render () =
  let s = Util.Texttab.render ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333"; "4" ] ] in
  Alcotest.(check bool) "has rule" true (String.contains s '-');
  Alcotest.(check bool) "mentions 333" true (Astring.String.is_infix ~affix:"333" s)

let test_spark () =
  Alcotest.(check string) "empty" "" (Util.Texttab.spark []);
  let s = Util.Texttab.spark [ 0.0; 1.0 ] in
  Alcotest.(check bool) "two cells" true (String.length s > 0)

(* --- cbr --- *)

let test_cbr_healthy_delivers_everything () =
  let r =
    Workload.Cbr.run Nets.net15 ~policy:Kar.Policy.Not_input_port
      ~level:Kar.Controller.Full ~rate_pps:500 ~duration_s:1.0 ~seed:1 ()
  in
  Alcotest.(check (float 1e-9)) "delivery 1.0" 1.0 r.Workload.Cbr.delivery_ratio;
  Alcotest.(check (float 1e-6)) "4 hops" 4.0 r.Workload.Cbr.mean_hops;
  Alcotest.(check int) "no re-encodes" 0 r.Workload.Cbr.reencoded

let test_cbr_failure_nip_still_delivers () =
  let sc = Nets.net15 in
  let fc = List.nth sc.Nets.failures 1 in
  let r =
    Workload.Cbr.run sc ~policy:Kar.Policy.Not_input_port
      ~level:Kar.Controller.Full ~rate_pps:500 ~duration_s:1.0 ~failure:fc
      ~seed:1 ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "delivery %.3f > 0.99" r.Workload.Cbr.delivery_ratio)
    true
    (r.Workload.Cbr.delivery_ratio > 0.99);
  Alcotest.(check bool) "hops inflated" true (r.Workload.Cbr.mean_hops > 4.0)

let test_cbr_failure_none_drops () =
  let sc = Nets.net15 in
  let fc = List.nth sc.Nets.failures 1 in
  let r =
    Workload.Cbr.run sc ~policy:Kar.Policy.No_deflection
      ~level:Kar.Controller.Full ~rate_pps:500 ~duration_s:1.0 ~failure:fc
      ~seed:1 ()
  in
  Alcotest.(check (float 1e-9)) "everything lost" 0.0 r.Workload.Cbr.delivery_ratio

(* --- runner --- *)

let test_runner_deterministic () =
  let sc = Nets.net15 in
  let config =
    {
      Workload.Runner.default_timeline with
      failure = Some (List.nth sc.Nets.failures 1);
      pre_s = 0.5;
      fail_s = 0.5;
      post_s = 0.5;
    }
  in
  let r1 = Workload.Runner.timeline sc config in
  let r2 = Workload.Runner.timeline sc config in
  Alcotest.(check (list (float 1e-9))) "same series for same seed"
    r1.Workload.Runner.series r2.Workload.Runner.series

let test_runner_failure_takes_effect () =
  let sc = Nets.net15 in
  let no_failure =
    Workload.Runner.timeline sc
      { Workload.Runner.default_timeline with pre_s = 0.5; fail_s = 0.5; post_s = 0.5 }
  in
  let with_failure =
    Workload.Runner.timeline sc
      {
        Workload.Runner.default_timeline with
        policy = Workload.Runner.Kar Kar.Policy.No_deflection;
        failure = Some (List.nth sc.Nets.failures 1);
        pre_s = 0.5;
        fail_s = 0.5;
        post_s = 0.5;
      }
  in
  Alcotest.(check bool) "failure suppresses goodput" true
    (with_failure.Workload.Runner.mean_fail
     < no_failure.Workload.Runner.mean_fail /. 2.0)

let test_runner_iperf_summary () =
  let sc = Nets.net15 in
  let config =
    { Workload.Runner.default_iperf with reps = 4; rep_duration_s = 1.0 }
  in
  let s = Workload.Runner.iperf_reps sc config in
  Alcotest.(check int) "four reps" 4 s.Util.Stats.n;
  Alcotest.(check bool) "positive goodput" true (s.Util.Stats.mean > 0.0)

let test_runner_fast_failover_plane () =
  let sc = Nets.net15 in
  let config =
    {
      Workload.Runner.default_iperf with
      policy = Workload.Runner.Fast_failover;
      reps = 2;
      rep_duration_s = 1.0;
      failure = Some (List.nth sc.Nets.failures 1);
    }
  in
  let s = Workload.Runner.iperf_reps sc config in
  Alcotest.(check bool) "the stateful baseline also carries traffic" true
    (s.Util.Stats.mean > 50.0)

(* --- conservation property on random topologies --- *)

let qtest_slow name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:8 ~name gen f)

let prop_cbr_conservation =
  qtest_slow "CBR conservation: sent = received + dropped (random nets)"
    QCheck2.Gen.(pair (1 -- 200) (0 -- 3))
    (fun (seed, policy_idx) ->
      (* a random labelled topology with hosts, a random single failure *)
      let base = Topo.Gen.gnp ~n:10 ~p:0.35 ~seed in
      let g = Kar.Ids.assign base Kar.Ids.Primes_ascending in
      let cores = Topo.Graph.core_nodes g in
      let src_core = List.nth cores 0 in
      let dist, _ = Topo.Paths.bfs g src_core in
      let dst_core =
        List.fold_left
          (fun best v -> if dist.(v) > dist.(best) then v else best)
          src_core cores
      in
      src_core = dst_core
      ||
      let g, hosts = Topo.Gen.with_edge_hosts g [ src_core; dst_core ] in
      let src, dst = match hosts with [ a; b ] -> (a, b) | _ -> assert false in
      let plan = Kar.Controller.route g ~src ~dst ~protection:[] in
      let policy = List.nth Kar.Policy.all policy_idx in
      (* run a short CBR stream with the first on-path link failed *)
      let engine = Netsim.Engine.create () in
      let net = Netsim.Net.create ~graph:g ~engine ~ttl:64 () in
      Netsim.Karnet.install_switches net ~policy ~seed:(seed + 1);
      let cache = Kar.Controller.create_cache g in
      let received = ref 0 in
      List.iter
        (fun v ->
          Netsim.Karnet.install_edge net v
            ~reencode:(fun p ->
              Kar.Controller.reencode cache ~at:v ~dst:(Netsim.Packet.dst p))
            ~receive:(fun _ _ -> incr received)
            ())
        (Topo.Graph.edge_nodes g);
      (match Topo.Paths.path_links g plan.Kar.Route.core_path with
       | l :: _ -> Netsim.Net.fail_link net l
       | [] -> ());
      let sent = 200 in
      for i = 0 to sent - 1 do
        ignore
          (Netsim.Engine.schedule_at engine (float_of_int i *. 1e-4) (fun () ->
               let p =
                 Netsim.Packet.make ~uid:i ~src ~dst ~size_bytes:500
                   ~route_id:plan.Kar.Route.route_id ~born:0.0 Netsim.Packet.Raw
               in
               Netsim.Net.inject net ~at:src p))
      done;
      Netsim.Engine.run engine;
      let s = Netsim.Net.stats net in
      let drops =
        s.Netsim.Net.dropped_link_down + s.Netsim.Net.dropped_queue_full
        + s.Netsim.Net.dropped_no_route + s.Netsim.Net.dropped_ttl
      in
      (* every injected packet is accounted for exactly once; [received]
         counts only packets reaching [dst], the others ended at [src]'s
         host handler after a walk or were dropped *)
      !received + drops <= sent
      && s.Netsim.Net.delivered + drops = sent)

let () =
  Alcotest.run "workload"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "split independence" `Quick test_prng_split_independent;
          prop_prng_int_range;
          Alcotest.test_case "uniformity" `Quick test_prng_uniformity;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_permutes;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary on known data" `Quick test_stats_known;
          Alcotest.test_case "single-sample CI" `Quick test_stats_ci_single;
          Alcotest.test_case "t table" `Quick test_stats_t_table;
        ] );
      ( "texttab",
        [
          Alcotest.test_case "render" `Quick test_texttab_render;
          Alcotest.test_case "spark" `Quick test_spark;
        ] );
      ( "cbr",
        [
          Alcotest.test_case "healthy: 100% delivery" `Quick
            test_cbr_healthy_delivers_everything;
          Alcotest.test_case "failure + NIP still delivers" `Quick
            test_cbr_failure_nip_still_delivers;
          Alcotest.test_case "failure + none drops all" `Quick test_cbr_failure_none_drops;
        ] );
      ( "conservation",
        [ prop_cbr_conservation ] );
      ( "runner",
        [
          Alcotest.test_case "deterministic per seed" `Slow test_runner_deterministic;
          Alcotest.test_case "failure takes effect" `Slow test_runner_failure_takes_effect;
          Alcotest.test_case "iperf summary" `Slow test_runner_iperf_summary;
          Alcotest.test_case "fast-failover data plane" `Slow test_runner_fast_failover_plane;
        ] );
    ]

(* Tests for the topology substrate: graph builder invariants, path
   search, generators, and the reconstructed paper topologies (every
   adjacency the paper's text names). *)

module Graph = Topo.Graph
module Paths = Topo.Paths
module Gen = Topo.Gen
module Nets = Topo.Nets

let qtest ?(count = 100) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

(* --- builder --- *)

let small_graph () =
  let b = Graph.Builder.create () in
  let a = Graph.Builder.add_node b 3 in
  let c = Graph.Builder.add_node b 5 in
  let d = Graph.Builder.add_node b ~kind:Graph.Edge 100 in
  let l1 = Graph.Builder.add_link b a c in
  let l2 = Graph.Builder.add_link b c d in
  (Graph.Builder.finish b, a, c, d, l1, l2)

let test_builder_basic () =
  let g, a, c, d, l1, _ = small_graph () in
  Alcotest.(check int) "nodes" 3 (Graph.n_nodes g);
  Alcotest.(check int) "links" 2 (Graph.n_links g);
  Alcotest.(check int) "deg a" 1 (Graph.degree g a);
  Alcotest.(check int) "deg c" 2 (Graph.degree g c);
  Alcotest.(check int) "label" 5 (Graph.label g c);
  Alcotest.(check bool) "core" true (Graph.is_core g a);
  Alcotest.(check bool) "edge" false (Graph.is_core g d);
  Alcotest.(check int) "node_of_label" c (Graph.node_of_label g 5);
  Alcotest.(check int) "link_between" l1 (Option.get (Graph.link_between g a c));
  Alcotest.(check (pair int int)) "peer" (c, 0) (Graph.peer g a 0)

let test_builder_duplicate_label () =
  let b = Graph.Builder.create () in
  ignore (Graph.Builder.add_node b 3);
  match Graph.Builder.add_node b 3 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected duplicate-label rejection"

let test_builder_self_loop () =
  let b = Graph.Builder.create () in
  let v = Graph.Builder.add_node b 3 in
  match Graph.Builder.add_link b v v with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected self-loop rejection"

let test_builder_port_pinning () =
  let b = Graph.Builder.create () in
  let x = Graph.Builder.add_node b 3 in
  let y = Graph.Builder.add_node b 5 in
  let z = Graph.Builder.add_node b 7 in
  ignore (Graph.Builder.add_link_at b (x, 1) (y, 0));
  ignore (Graph.Builder.add_link_at b (x, 0) (z, 0));
  let g = Graph.Builder.finish b in
  Alcotest.(check (option int)) "x->z is port 0" (Some 0) (Graph.port_towards g x z);
  Alcotest.(check (option int)) "x->y is port 1" (Some 1) (Graph.port_towards g x y)

let test_builder_sparse_ports_rejected () =
  let b = Graph.Builder.create () in
  let x = Graph.Builder.add_node b 3 in
  let y = Graph.Builder.add_node b 5 in
  ignore (Graph.Builder.add_link_at b (x, 2) (y, 0));
  match Graph.Builder.finish b with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected sparse-port rejection"

let test_builder_port_conflict () =
  let b = Graph.Builder.create () in
  let x = Graph.Builder.add_node b 3 in
  let y = Graph.Builder.add_node b 5 in
  let z = Graph.Builder.add_node b 7 in
  ignore (Graph.Builder.add_link_at b (x, 0) (y, 0));
  match Graph.Builder.add_link_at b (x, 0) (z, 0) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected port-conflict rejection"

let test_relabel () =
  let g, a, _, _, _, _ = small_graph () in
  let mapping = Array.make 3 0 in
  mapping.(0) <- 11;
  mapping.(1) <- 13;
  mapping.(2) <- 200;
  let g' = Graph.relabel g mapping in
  Alcotest.(check int) "new label" 11 (Graph.label g' a);
  Alcotest.(check int) "lookup" a (Graph.node_of_label g' 11);
  (* original untouched *)
  Alcotest.(check int) "old label" 3 (Graph.label g a)

let test_relabel_duplicate () =
  let g, _, _, _, _, _ = small_graph () in
  match Graph.relabel g [| 1; 1; 2 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected duplicate rejection"

(* --- paths --- *)

let test_bfs_line () =
  let g = Gen.line 5 in
  let dist, parent = Paths.bfs g 0 in
  Alcotest.(check int) "dist to end" 4 dist.(4);
  Alcotest.(check int) "parent chain" 3 parent.(4);
  Alcotest.(check (option (list int)))
    "path" (Some [ 0; 1; 2; 3; 4 ]) (Paths.shortest_path g 0 4)

let test_bfs_usable_filter () =
  let g = Gen.ring 6 in
  (* cut one direction of the ring: path must go the long way *)
  let cut = Option.get (Graph.link_between g 0 1) in
  let usable l = l.Graph.id <> cut in
  match Paths.shortest_path g ~usable 0 1 with
  | Some p -> Alcotest.(check int) "long way" 6 (List.length p)
  | None -> Alcotest.fail "ring should stay connected"

let test_components () =
  let b = Graph.Builder.create () in
  let a = Graph.Builder.add_node b 2 in
  let c = Graph.Builder.add_node b 3 in
  let d = Graph.Builder.add_node b 5 in
  let e = Graph.Builder.add_node b 7 in
  ignore (Graph.Builder.add_link b a c);
  ignore (Graph.Builder.add_link b d e);
  let g = Graph.Builder.finish b in
  Alcotest.(check bool) "not connected" false (Paths.is_connected g)

(* A plain reference for [Paths.bfs]: a [Queue] over [Graph.ports] lists,
   asking [usable] about every link before looking at the far node.  The
   port-order tie-breaks pick every parent, and so every primary path and
   route ID. *)
let reference_bfs g ~usable src =
  let n = Graph.n_nodes g in
  let dist = Array.make n max_int and parent = Array.make n (-1) in
  dist.(src) <- 0;
  let q = Queue.create () in
  Queue.add src q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    List.iter
      (fun (_, l, far) ->
        if usable l && dist.(far) = max_int then begin
          dist.(far) <- dist.(v) + 1;
          parent.(far) <- v;
          Queue.add far q
        end)
      (Graph.ports g v)
  done;
  (dist, parent)

(* A random Waxman, G(n,p), grid or torus graph and a random set of
   failed links (each link with probability 1/4), which may disconnect
   it. *)
let gen_failed_graph =
  QCheck2.Gen.(
    let* family = 0 -- 3 and* seed = 1 -- 10_000 in
    let* g =
      match family with
      | 0 -> map (fun n -> Gen.waxman ~n ~alpha:0.9 ~beta:0.5 ~seed) (4 -- 40)
      | 1 -> map (fun n -> Gen.gnp ~n ~p:0.2 ~seed) (4 -- 40)
      | 2 -> map2 (fun w h -> Gen.grid ~w ~h) (1 -- 7) (1 -- 7)
      | _ -> map2 (fun w h -> Gen.torus ~w ~h) (3 -- 7) (3 -- 7)
    in
    let* failed = array_repeat (Graph.n_links g) (map (fun k -> k = 0) (0 -- 3)) in
    pure (g, failed))

(* The path from [src] to [dst] that a full search's parents give. *)
let path_of_parents parent src dst =
  let rec go acc v = if v = src then src :: acc else go (v :: acc) parent.(v) in
  if dst = src then Some [ src ] else if parent.(dst) < 0 then None else Some (go [] dst)

(* [shortest_path] stops its search at [dst]; its path must still be the
   one the full search's parents give, for every ordered pair. *)
let prop_bfs_matches_reference =
  qtest ~count:200 "bfs = queue-of-ports reference from every source"
    gen_failed_graph (fun (g, failed) ->
      let usable l = not failed.(l.Graph.id) in
      let nodes = List.init (Graph.n_nodes g) Fun.id in
      List.for_all
        (fun src ->
          let ((_, parent) as full) = reference_bfs g ~usable src in
          Paths.bfs g ~usable src = full
          && List.for_all
               (fun dst ->
                 Paths.shortest_path g ~usable src dst = path_of_parents parent src dst)
               nodes)
        nodes)

let prop_far_matches_peer =
  qtest ~count:100 "far = fst peer at every port, also after relabel"
    gen_failed_graph (fun (g, _) ->
      let n = Graph.n_nodes g in
      let relabelled = Graph.relabel g (Array.init n (fun v -> 2 * (n - v))) in
      List.for_all
        (fun g ->
          List.for_all
            (fun v ->
              List.for_all
                (fun p -> Graph.far g v p = fst (Graph.peer g v p))
                (List.init (Graph.degree g v) Fun.id))
            (List.init n Fun.id))
        [ g; relabelled ])

(* --- generators --- *)

let test_generator_shapes () =
  Alcotest.(check int) "line nodes" 7 (Graph.n_nodes (Gen.line 7));
  Alcotest.(check int) "line links" 6 (Graph.n_links (Gen.line 7));
  Alcotest.(check int) "ring links" 9 (Graph.n_links (Gen.ring 9));
  Alcotest.(check int) "grid nodes" 12 (Graph.n_nodes (Gen.grid ~w:4 ~h:3));
  Alcotest.(check int) "grid links" 17 (Graph.n_links (Gen.grid ~w:4 ~h:3));
  Alcotest.(check int) "complete links" 10 (Graph.n_links (Gen.complete 5));
  Alcotest.(check int) "torus links" 32 (Graph.n_links (Gen.torus ~w:4 ~h:4))

let test_torus_regular () =
  let g = Gen.torus ~w:4 ~h:5 in
  Graph.iter_nodes g ~f:(fun v ->
      Alcotest.(check int) "degree 4" 4 (Graph.degree g v))

let prop_gnp_connected =
  qtest ~count:20 "gnp samples are connected" QCheck2.Gen.(1 -- 1000) (fun seed ->
      Paths.is_connected (Gen.gnp ~n:16 ~p:0.3 ~seed))

let prop_waxman_connected =
  qtest ~count:20 "waxman samples are connected" QCheck2.Gen.(1 -- 1000) (fun seed ->
      Paths.is_connected (Gen.waxman ~n:16 ~alpha:0.9 ~beta:0.5 ~seed))

let prop_gnp_deterministic =
  qtest ~count:20 "gnp is deterministic per seed" QCheck2.Gen.(1 -- 1000) (fun seed ->
      let g1 = Gen.gnp ~n:12 ~p:0.3 ~seed and g2 = Gen.gnp ~n:12 ~p:0.3 ~seed in
      Graph.n_links g1 = Graph.n_links g2
      && List.for_all2
           (fun (a : Graph.link) b ->
             a.Graph.ep0 = b.Graph.ep0 && a.Graph.ep1 = b.Graph.ep1)
           (Graph.links g1) (Graph.links g2))

let test_with_edge_hosts () =
  let g = Gen.ring 5 in
  let g', hosts = Gen.with_edge_hosts g [ 0; 2 ] in
  Alcotest.(check int) "two hosts" 2 (List.length hosts);
  Alcotest.(check int) "nodes" 7 (Graph.n_nodes g');
  List.iter
    (fun h ->
      Alcotest.(check bool) "edge kind" false (Graph.is_core g' h);
      Alcotest.(check int) "degree 1" 1 (Graph.degree g' h))
    hosts;
  (* node indices preserved for the original nodes *)
  Graph.iter_nodes g ~f:(fun v ->
      Alcotest.(check int) "label preserved" (Graph.label g v) (Graph.label g' v))

(* --- the paper topologies --- *)

let adjacency_check g a b =
  Alcotest.(check bool)
    (Printf.sprintf "SW%d-SW%d adjacent" a b)
    true
    (Graph.link_between g (Graph.node_of_label g a) (Graph.node_of_label g b)
     <> None)

let test_fig1_structure () =
  let sc = Nets.fig1_six in
  let g = sc.Nets.graph in
  Alcotest.(check int) "six nodes" 6 (Graph.n_nodes g);
  Alcotest.(check (list int)) "switch IDs" [ 4; 5; 7; 11 ] (Graph.core_labels g);
  (* the pinned ports of the worked example *)
  let n l = Graph.node_of_label g l in
  Alcotest.(check (option int)) "SW4 port 0 -> SW7" (Some 0) (Graph.port_towards g (n 4) (n 7));
  Alcotest.(check (option int)) "SW7 port 2 -> SW11" (Some 2) (Graph.port_towards g (n 7) (n 11));
  Alcotest.(check (option int)) "SW5 port 0 -> SW11" (Some 0) (Graph.port_towards g (n 5) (n 11));
  Alcotest.(check (option int)) "SW11 port 0 -> D" (Some 0)
    (Graph.port_towards g (n 11) sc.Nets.egress)

let test_net15_structure () =
  let sc = Nets.net15 in
  let g = sc.Nets.graph in
  Alcotest.(check int) "15 core switches" 15 (List.length (Graph.core_nodes g));
  Alcotest.(check bool) "connected" true (Paths.is_connected g);
  (* pairwise coprime IDs *)
  Alcotest.(check bool) "coprime IDs" true
    (Rns.pairwise_coprime (Graph.core_labels g) = Ok ());
  (* the primary route and SW10's three deflection alternatives *)
  List.iter (fun (a, b) -> adjacency_check g a b)
    [ (10, 7); (7, 13); (13, 29); (10, 11); (10, 17); (10, 37) ];
  (* failures point at real links *)
  List.iter
    (fun fc -> ignore (Graph.link g fc.Nets.link))
    sc.Nets.failures

let test_rnp_structure () =
  let sc = Nets.rnp28 in
  let g = sc.Nets.graph in
  Alcotest.(check int) "28 PoPs" 28 (List.length (Graph.core_nodes g));
  Alcotest.(check int) "40 links" 40 (List.length (Graph.core_links g));
  Alcotest.(check bool) "connected" true (Paths.is_connected g);
  Alcotest.(check bool) "coprime IDs" true
    (Rns.pairwise_coprime (Graph.core_labels g) = Ok ());
  (* every adjacency the text names *)
  List.iter (fun (a, b) -> adjacency_check g a b)
    [ (7, 11); (7, 13); (11, 17); (13, 41); (13, 29); (13, 17); (13, 47);
      (13, 37); (13, 71); (41, 73); (41, 17); (41, 61); (17, 71); (61, 67);
      (67, 71); (71, 73); (73, 107); (73, 109); (107, 113); (109, 113) ];
  (* the degree facts behind the deflection fan-outs of section 3.2 *)
  let deg l = Graph.degree g (Graph.node_of_label g l) in
  Alcotest.(check int) "SW7 degree (host + 2)" 3 (deg 7);
  Alcotest.(check int) "SW13 degree 7" 7 (deg 13);
  Alcotest.(check int) "SW41 degree 4" 4 (deg 41);
  Alcotest.(check int) "SW107 degree 2" 2 (deg 107);
  Alcotest.(check int) "SW109 degree 2" 2 (deg 109)

let test_fig8_structure () =
  let sc = Nets.rnp_fig8 in
  let g = sc.Nets.graph in
  (* SW73: host attaches at SW113 in this scenario, so 73 keeps degree 4 —
     the text's "two possible next hops" under the failure *)
  Alcotest.(check int) "SW73 degree 4" 4 (Graph.degree g (Graph.node_of_label g 73));
  Alcotest.(check int) "primary length" 6 (List.length sc.Nets.primary);
  Alcotest.(check bool) "egress at SW113" true
    (Graph.port_towards g (Graph.node_of_label g 113) sc.Nets.egress <> None)

let test_protection_residues () =
  let sc = Nets.rnp28 in
  let rs = Nets.protection_residues sc.Nets.graph sc.Nets.partial_protection in
  Alcotest.(check int) "four hops" 4 (List.length rs);
  List.iter
    (fun (s, p) ->
      Alcotest.(check bool) (Printf.sprintf "port %d < id %d" p s) true (p < s))
    rs

let test_serial_file_roundtrip () =
  let path = Filename.temp_file "kar_topo" ".kar" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Topo.Serial.save path Nets.net15.Nets.graph;
      match Topo.Serial.load path with
      | Ok g ->
        Alcotest.(check int) "nodes survive the disk" 18 (Graph.n_nodes g)
      | Error e -> Alcotest.failf "%a" Topo.Serial.pp_error e)

(* --- region partitioning --- *)

let test_partition_single_region () =
  let g = Nets.net15.Nets.graph in
  let p = Topo.Partition.make g ~regions:1 in
  Alcotest.(check int) "one region" 1 p.Topo.Partition.n_regions;
  Array.iter
    (fun r -> Alcotest.(check int) "all nodes in region 0" 0 r)
    p.Topo.Partition.region_of;
  Alcotest.(check (list int)) "no cut links" [] p.Topo.Partition.cut_links;
  Alcotest.(check (float 0.0)) "cut ratio 0" 0.0 p.Topo.Partition.cut_ratio;
  Alcotest.(check bool) "infinite lookahead" true
    (p.Topo.Partition.lookahead = infinity);
  Alcotest.(check bool) "valid" true
    (Topo.Partition.validate p g = Ok ())

let test_partition_too_many_regions () =
  let g = Gen.line 4 in
  (match Topo.Partition.make g ~regions:5 with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "expected rejection of regions > nodes");
  match Topo.Partition.make g ~regions:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection of regions < 1"

let test_partition_net15 () =
  let g = Nets.net15.Nets.graph in
  let p = Topo.Partition.make g ~regions:2 in
  Alcotest.(check bool) "valid" true (Topo.Partition.validate p g = Ok ());
  Alcotest.(check bool) "has cut links" true (p.Topo.Partition.cut_links <> []);
  Alcotest.(check bool) "positive finite lookahead" true
    (p.Topo.Partition.lookahead > 0.0 && p.Topo.Partition.lookahead < infinity);
  Alcotest.(check bool) "ratio in (0,1]" true
    (p.Topo.Partition.cut_ratio > 0.0 && p.Topo.Partition.cut_ratio <= 1.0)

let prop_partition_valid =
  qtest ~count:60 "partitions are connected, non-empty, covering"
    QCheck2.Gen.(pair (1 -- 1000) (1 -- 6))
    (fun (seed, regions) ->
      let g =
        match seed mod 5 with
        | 0 -> Gen.gnp ~n:14 ~p:0.35 ~seed
        | 1 -> Gen.waxman ~n:14 ~alpha:0.9 ~beta:0.5 ~seed
        | 2 -> Gen.torus ~w:4 ~h:4
        | 3 -> Nets.net15.Nets.graph
        | _ -> Nets.rnp28.Nets.graph
      in
      let regions = min regions (Graph.n_nodes g) in
      let p = Topo.Partition.make g ~regions in
      match Topo.Partition.validate p g with
      | Ok () -> true
      | Error e -> QCheck2.Test.fail_report e)

let test_dot_output () =
  let s = Topo.Dot.to_dot Nets.fig1_six.Nets.graph in
  Alcotest.(check bool) "mentions SW4" true
    (Astring.String.is_infix ~affix:"SW4" s);
  Alcotest.(check bool) "graph block" true
    (Astring.String.is_prefix ~affix:"graph" s)

let () =
  Alcotest.run "topo"
    [
      ( "builder",
        [
          Alcotest.test_case "basics" `Quick test_builder_basic;
          Alcotest.test_case "duplicate label" `Quick test_builder_duplicate_label;
          Alcotest.test_case "self loop" `Quick test_builder_self_loop;
          Alcotest.test_case "port pinning" `Quick test_builder_port_pinning;
          Alcotest.test_case "sparse ports rejected" `Quick test_builder_sparse_ports_rejected;
          Alcotest.test_case "port conflict" `Quick test_builder_port_conflict;
          Alcotest.test_case "relabel" `Quick test_relabel;
          Alcotest.test_case "relabel duplicate" `Quick test_relabel_duplicate;
        ] );
      ( "paths",
        [
          Alcotest.test_case "bfs on a line" `Quick test_bfs_line;
          Alcotest.test_case "bfs with failed link" `Quick test_bfs_usable_filter;
          Alcotest.test_case "components" `Quick test_components;
          prop_bfs_matches_reference;
          prop_far_matches_peer;
        ] );
      ( "generators",
        [
          Alcotest.test_case "shapes" `Quick test_generator_shapes;
          Alcotest.test_case "torus regularity" `Quick test_torus_regular;
          prop_gnp_connected; prop_waxman_connected; prop_gnp_deterministic;
          Alcotest.test_case "edge hosts" `Quick test_with_edge_hosts;
        ] );
      ( "partition",
        [
          Alcotest.test_case "single region is the whole graph" `Quick
            test_partition_single_region;
          Alcotest.test_case "bad region counts rejected" `Quick
            test_partition_too_many_regions;
          Alcotest.test_case "net15 two-way cut" `Quick test_partition_net15;
          prop_partition_valid;
        ] );
      ( "paper topologies",
        [
          Alcotest.test_case "fig1 structure + pinned ports" `Quick test_fig1_structure;
          Alcotest.test_case "net15 structure" `Quick test_net15_structure;
          Alcotest.test_case "rnp28 structure (all named adjacencies)" `Quick
            test_rnp_structure;
          Alcotest.test_case "fig8 variant" `Quick test_fig8_structure;
          Alcotest.test_case "protection residues" `Quick test_protection_residues;
          Alcotest.test_case "dot export" `Quick test_dot_output;
          Alcotest.test_case "serial file round trip" `Quick test_serial_file_roundtrip;
        ] );
    ]

module Graph = Topo.Graph
module Paths = Topo.Paths

type row = {
  nodes : int;
  diameter : int;
  bits_unprotected : int;
  bits_radius1 : int;
  bits_full : int;
  fits_header : bool;
}

(* A diameter-length route on a KAR-labelled Waxman graph with one host at
   each end. *)
let scenario_for n =
  let base = Topo.Gen.waxman ~n ~alpha:0.9 ~beta:0.35 ~seed:(1000 + n) in
  let g = Kar.Ids.assign base Kar.Ids.Prime_powers in
  (* find a diameter endpoint pair *)
  let best = ref (0, 0, 0) in
  Graph.iter_nodes g ~f:(fun v ->
      let dist, _ = Paths.bfs g v in
      Array.iteri
        (fun u d ->
          if d <> max_int && d > (fun (_, _, d') -> d') !best then best := (v, u, d))
        dist);
  let src_core, dst_core, diameter = !best in
  let g, hosts = Topo.Gen.with_edge_hosts g [ src_core; dst_core ] in
  match hosts with
  | [ src; dst ] -> (g, src, dst, diameter)
  | _ -> assert false

(* Unbounded plans: the study measures how wide a level's route ID grows,
   so the header budget that caps served plans is lifted here. *)
let plan_bits g ~src ~dst level =
  (Kar.Controller.protected_route ~max_bits:max_int g ~src ~dst ~level)
    .Kar.Route.bit_length

(* Each network size is an independent unit (its own generated graph,
   seeded by [n]), so the sizes sweep in parallel on the domain pool. *)
let run () =
  Util.Pool.run [| 16; 32; 64; 128; 256 |] ~f:(fun ~idx:_ n ->
      let g, src, dst, diameter = scenario_for n in
      let bits_full = plan_bits g ~src ~dst Kar.Controller.Full in
      {
        nodes = n;
        diameter;
        bits_unprotected = plan_bits g ~src ~dst Kar.Controller.Unprotected;
        bits_radius1 = plan_bits g ~src ~dst Kar.Controller.Partial;
        bits_full;
        fits_header = bits_full <= Wire.Header.max_route_bits;
      })
  |> Array.to_list

let to_string () =
  let rows = run () in
  "Scaling: route-ID bits vs network size (Waxman graphs, prime-power IDs, \
   diameter routes)\n"
  ^ Util.Texttab.render
      ~header:
        [ "Nodes"; "Diameter"; "Unprotected (bits)"; "Radius-1 protection";
          "Full protection"; "Fits wire header" ]
      (List.map
         (fun r ->
           [
             string_of_int r.nodes;
             string_of_int r.diameter;
             string_of_int r.bits_unprotected;
             string_of_int r.bits_radius1;
             string_of_int r.bits_full;
             (if r.fits_header then "yes" else "NO");
           ])
         rows)
  ^ Printf.sprintf
      "The wire header carries up to %d bits; full protection outgrows \
       headers long before radius-1 protection does — the loose-source-\
       routing trade-off of section 2.3.\n"
      Wire.Header.max_route_bits

let multipath_to_string () =
  let rows =
    Util.Pool.run [| 16; 32; 64; 128 |] ~f:(fun ~idx:_ n ->
        let g, src, dst, _ = scenario_for n in
        let plans = Kar.Controller.disjoint_plans g ~src ~dst ~k:3 in
        let bits = List.map (fun p -> p.Kar.Route.bit_length) plans in
        let protected_bits = plan_bits g ~src ~dst Kar.Controller.Partial in
        [
          string_of_int n;
          string_of_int (List.length plans);
          String.concat "+" (List.map string_of_int bits);
          string_of_int (List.fold_left ( + ) 0 bits);
          string_of_int protected_bits;
        ])
    |> Array.to_list
  in
  "Multipath vs driven deflection: header cost of k disjoint route IDs \
   (future work)\n"
  ^ Util.Texttab.render
      ~header:
        [ "Nodes"; "Disjoint paths"; "Bits per path"; "Total multipath bits";
          "One radius-1-protected ID" ]
      rows
  ^ "At small scale the costs are comparable, but multipath headers grow \
     with path length only, while protected route IDs grow with the size of \
     the protected neighbourhood — an order of magnitude apart by ~100 \
     nodes.  What multipath cannot do is save the packets already in \
     flight: only deflection reacts before the ingress learns anything.\n"

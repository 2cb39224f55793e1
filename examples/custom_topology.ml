(* Bring-your-own-network walkthrough: the full operator workflow on a
   topology loaded from (or, here, generated and saved to) a file.

   1. build/load a topology in the Topo.Serial text format,
   2. assign pairwise-coprime switch IDs,
   3. plan a protected route with the analysis-guided optimizer,
   4. check every single-link failure with the exact chain analysis,
   5. emit the wire header an ingress would stamp.

   Run with:  dune exec examples/custom_topology.exe [file.kar]
   With no argument a demo topology is generated and used. *)

module Graph = Topo.Graph

let demo_topology () =
  (* a ring-of-rings ISP-ish sample, saved so the reader can inspect it *)
  let base = Topo.Gen.waxman ~n:20 ~alpha:0.9 ~beta:0.4 ~seed:7 in
  let g = Kar.Ids.assign base Kar.Ids.Prime_powers in
  let cores = Array.of_list (Graph.core_nodes g) in
  let a = cores.(0) in
  let dist, _ = Topo.Paths.bfs g a in
  let b =
    Array.to_list cores
    |> List.fold_left (fun best v -> if dist.(v) > dist.(best) then v else best) a
  in
  let g, _ = Topo.Gen.with_edge_hosts g [ a; b ] in
  let path = Filename.concat (Filename.get_temp_dir_name ()) "custom_demo.kar" in
  Topo.Serial.save path g;
  Printf.printf "demo topology written to %s\n" path;
  g

let () =
  (* 1. load or generate *)
  let g =
    match Sys.argv with
    | [| _; file |] ->
      (match Topo.Serial.load file with
       | Ok g -> g
       | Error e ->
         Format.eprintf "%s: %a@." file Topo.Serial.pp_error e;
         exit 1)
    | _ -> demo_topology ()
  in
  (* 2. sanity: coprimality is a hard requirement; a switch whose ID
        cannot encode all its ports (like net15's SW3) merely cannot carry
        residues — planning routes around it still works *)
  (match Kar.Ids.validate_issues g with
   | [] -> print_endline "switch-ID assignment: valid (pairwise coprime)"
   | issues ->
     let hard, soft = List.partition Kar.Ids.is_fatal issues in
     List.iter
       (fun i -> Format.printf "warning: %a@." Kar.Ids.pp_issue i)
       soft;
     if hard <> [] then begin
       List.iter (fun i -> Format.eprintf "%a@." Kar.Ids.pp_issue i) hard;
       exit 1
     end);
  (* pick the two edge hosts as endpoints *)
  let src, dst =
    match Graph.edge_nodes g with
    | a :: b :: _ -> (a, b)
    | _ ->
      prerr_endline "need at least two edge nodes in the topology";
      exit 1
  in
  (* 3. a protected plan within a 96-bit header budget, optimizing the
        worst-case delivery over every single link failure of the route *)
  let base = Kar.Controller.route g ~src ~dst ~protection:[] in
  let failures = Topo.Paths.path_links g base.Kar.Route.core_path in
  let optimized =
    Kar.Optimizer.optimize g ~plan:base ~policy:Kar.Policy.Not_input_port
      ~failures ~src ~dst ~bits:96
  in
  Printf.printf "route %s  (%d bits unprotected)\n"
    (String.concat "->"
       (List.map (fun v -> string_of_int (Graph.label g v)) base.Kar.Route.core_path))
    base.Kar.Route.bit_length;
  List.iter
    (fun s ->
      Printf.printf "  + protect SW%d -> SW%d   (worst-case delivery %.3f -> %.3f, %d bits)\n"
        (fst s.Kar.Optimizer.hop) (snd s.Kar.Optimizer.hop)
        s.Kar.Optimizer.score_before s.Kar.Optimizer.score_after
        s.Kar.Optimizer.bits_after)
    optimized.Kar.Optimizer.steps;
  (* 4. the exact per-failure report for the final plan *)
  print_endline "per-failure analysis of the protected plan (NIP):";
  List.iter
    (fun link_id ->
      let l = Graph.link g link_id in
      let a =
        Kar.Markov.analyze g ~plan:optimized.Kar.Optimizer.plan
          ~policy:Kar.Policy.Not_input_port ~failed:[ link_id ] ~src ~dst
      in
      Printf.printf "  SW%d-SW%d down: P(deliver)=%.3f, E[hops|del]=%s\n"
        (Graph.label g l.Graph.ep0.Graph.node)
        (Graph.label g l.Graph.ep1.Graph.node)
        a.Kar.Markov.p_delivered
        (if Float.is_nan a.Kar.Markov.expected_hops_delivered then "-"
         else Printf.sprintf "%.2f" a.Kar.Markov.expected_hops_delivered))
    failures;
  (* 5. the bytes the ingress stamps *)
  match
    Wire.Header.encode (Wire.Header.make ~ttl:64 optimized.Kar.Optimizer.plan.Kar.Route.route_id)
  with
  | Ok bytes ->
    Printf.printf "wire header (%d bytes): " (String.length bytes);
    String.iter (fun c -> Printf.printf "%02x" (Char.code c)) bytes;
    print_newline ()
  | Error e -> Format.printf "header: %a@." Wire.Header.pp_error e

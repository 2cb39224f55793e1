(* Quickstart: the paper's worked example, end to end.

   Builds the six-node network of Fig. 1, encodes the route ID for the path
   S -> SW4 -> SW7 -> SW11 -> D (expect 44), folds in the driven-deflection
   protection hop SW5 -> SW11 (expect 660), then traces packets hop by hop
   — first on the healthy network, then with the SW7-SW11 link failed, to
   show deflection driving the packet home through SW5.

   Run with:  dune exec examples/quickstart.exe *)

module Z = Bignum.Z
module Graph = Topo.Graph

let trace_walk g plan ~failed ~src ~dst ~seed =
  (* Follow one packet with the NIP data plane, printing each hop. *)
  let rng = Util.Prng.of_int seed in
  let entry = (Graph.other_end (Graph.link_at g src 0) src).Graph.node in
  let entry_port = (Graph.other_end (Graph.link_at g src 0) src).Graph.port in
  Printf.printf "  S";
  let rec step v in_port deflected budget =
    if v = dst then print_endline " -> D  (delivered)"
    else if budget = 0 then print_endline "  ... (truncated)"
    else begin
      Printf.printf " -> SW%d" (Graph.label g v);
      let choice =
        Kar.Policy.choose Kar.Policy.Not_input_port
          ~computed:(Kar.Route.port_at plan ~switch_id:(Graph.label g v))
          ~in_port ~deflected ~degree:(Graph.degree g v)
          ~live:
            (Kar.Policy.mask_of_failures g ~node:v ~failed:(fun id ->
                 List.mem id failed))
      in
      if choice = 0 then print_endline "  (dropped)"
      else begin
        (* negative: the computed port; positive: a deflection draw *)
        let port = if choice < 0 then lnot choice else Kar.Policy.pick rng choice in
        let far = Graph.other_end (Graph.link_at g v port) v in
        step far.Graph.node far.Graph.port (deflected || choice > 0) (budget - 1)
      end
    end
  in
  step entry entry_port false 16

let () =
  let sc = Topo.Nets.fig1_six in
  let g = sc.Topo.Nets.graph in

  (* 1. Encode the primary route: switches {4, 7, 11}, ports {0, 2, 0}. *)
  let primary = Kar.Controller.scenario_plan sc Kar.Controller.Unprotected in
  Printf.printf "Primary route ID : %s (modulus %s, %d bits)\n"
    (Z.to_string primary.Kar.Route.route_id)
    (Z.to_string primary.Kar.Route.modulus)
    primary.Kar.Route.bit_length;

  (* 2. The forwarding computation each switch performs: R mod switch_id. *)
  List.iter
    (fun id ->
      Printf.printf "  <%s>_%d = %d\n"
        (Z.to_string primary.Kar.Route.route_id)
        id
        (Rns.port primary.Kar.Route.route_id id))
    [ 4; 7; 11 ];

  (* 3. Fold in the protection hop SW5 -> SW11 (driven deflection). *)
  let protected_plan = Kar.Controller.scenario_plan sc Kar.Controller.Partial in
  Printf.printf "Protected route ID: %s (modulus %s)\n"
    (Z.to_string protected_plan.Kar.Route.route_id)
    (Z.to_string protected_plan.Kar.Route.modulus);
  Printf.printf "  residues at {4,7,11,5} = %s   (paper: 0 2 0 0)\n"
    (String.concat " "
       (List.map string_of_int (Rns.decode protected_plan.Kar.Route.route_id [ 4; 7; 11; 5 ])));

  (* 4. Trace packets: healthy, then with SW7-SW11 failed. *)
  print_endline "\nHealthy network:";
  trace_walk g protected_plan ~failed:[] ~src:sc.Topo.Nets.ingress
    ~dst:sc.Topo.Nets.egress ~seed:1;
  let failure = List.hd sc.Topo.Nets.failures in
  Printf.printf "\nWith %s failed (three sample packets):\n" failure.Topo.Nets.name;
  List.iter
    (fun seed ->
      trace_walk g protected_plan ~failed:[ failure.Topo.Nets.link ]
        ~src:sc.Topo.Nets.ingress ~dst:sc.Topo.Nets.egress ~seed)
    [ 1; 2; 3 ];

  (* 5. The exact picture, via the absorbing-chain analysis. *)
  let a =
    Kar.Markov.analyze g ~plan:protected_plan ~policy:Kar.Policy.Not_input_port
      ~failed:[ failure.Topo.Nets.link ] ~src:sc.Topo.Nets.ingress
      ~dst:sc.Topo.Nets.egress
  in
  Printf.printf
    "\nExact analysis under the failure: delivery probability %.3f, expected \
     hops %.2f (3 when healthy)\n"
    a.Kar.Markov.p_delivered a.Kar.Markov.expected_hops_delivered

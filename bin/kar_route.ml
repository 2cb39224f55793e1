(* kar_route: an operator's Swiss-army knife for KAR route IDs.

     kar_route encode -r 4:0 -r 7:2 -r 11:0      # -> route ID + modulus
     kar_route decode -R 660 -s 4,7,11,5          # -> ports per switch
     kar_route header -R 660 --ttl 64             # -> wire bytes (hex)
     kar_route parse  -x 2002cb9c00000294         # -> header fields
     kar_route plan   --topo net.kar --src 1001 --dst 1003
     kar_route ids    --topo net.kar --strategy prime-powers *)

open Cmdliner

let residue_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ m; v ] ->
      (try Ok { Rns.modulus = int_of_string m; value = int_of_string v }
       with Failure _ -> Error (`Msg ("bad residue " ^ s)))
    | _ -> Error (`Msg "residue must be <switch>:<port>")
  in
  let print ppf r = Format.fprintf ppf "%d:%d" r.Rns.modulus r.Rns.value in
  Arg.conv (parse, print)

let z_conv =
  let parse s =
    try Ok (Bignum.Z.of_string s) with Invalid_argument m -> Error (`Msg m)
  in
  Arg.conv (parse, Bignum.Z.pp)

let ids_conv =
  let parse s =
    try Ok (List.map int_of_string (String.split_on_char ',' s))
    with Failure _ -> Error (`Msg ("bad id list " ^ s))
  in
  let print ppf ids =
    Format.pp_print_string ppf (String.concat "," (List.map string_of_int ids))
  in
  Arg.conv (parse, print)

(* --- encode --- *)

let encode_cmd =
  let residues =
    Arg.(
      non_empty
      & opt_all residue_conv []
      & info [ "r"; "residue" ] ~docv:"SWITCH:PORT"
          ~doc:"A residue (repeatable, in path order).")
  in
  let run residues =
    match Rns.encode residues with
    | Ok (r, m) ->
      Printf.printf "route_id %s\nmodulus  %s\nbits     %d\n"
        (Bignum.Z.to_string r) (Bignum.Z.to_string m)
        (Rns.bit_length_bound m);
      `Ok ()
    | Error e -> `Error (false, Rns.error_to_string e)
  in
  Cmd.v
    (Cmd.info "encode" ~doc:"Compute a route ID from (switch, port) residues")
    Term.(ret (const run $ residues))

(* --- decode --- *)

let decode_cmd =
  let route =
    Arg.(
      required
      & opt (some z_conv) None
      & info [ "R"; "route" ] ~docv:"ROUTE_ID" ~doc:"The route ID.")
  in
  let switches =
    Arg.(
      required
      & opt (some ids_conv) None
      & info [ "s"; "switches" ] ~docv:"IDS" ~doc:"Comma-separated switch IDs.")
  in
  let run route switches =
    List.iter
      (fun id -> Printf.printf "<R>_%d = %d\n" id (Rns.port route id))
      switches;
    `Ok ()
  in
  Cmd.v
    (Cmd.info "decode" ~doc:"Compute the output port at each switch")
    Term.(ret (const run $ route $ switches))

(* --- header --- *)

let header_cmd =
  let route =
    Arg.(
      required
      & opt (some z_conv) None
      & info [ "R"; "route" ] ~docv:"ROUTE_ID" ~doc:"The route ID.")
  in
  let ttl =
    Arg.(value & opt int 64 & info [ "ttl" ] ~docv:"TTL" ~doc:"Initial TTL.")
  in
  let run route ttl =
    match Wire.Header.encode (Wire.Header.make ~ttl route) with
    | Ok bytes ->
      String.iter (fun c -> Printf.printf "%02x" (Char.code c)) bytes;
      print_newline ();
      Printf.printf "(%d bytes)\n" (String.length bytes);
      `Ok ()
    | Error e -> `Error (false, Format.asprintf "%a" Wire.Header.pp_error e)
  in
  Cmd.v
    (Cmd.info "header" ~doc:"Serialise a route ID into the KAR wire header")
    Term.(ret (const run $ route $ ttl))

(* --- parse --- *)

let parse_cmd =
  let hex =
    Arg.(
      required
      & opt (some string) None
      & info [ "x"; "hex" ] ~docv:"HEX" ~doc:"Header bytes in hex.")
  in
  let run hex =
    if String.length hex mod 2 <> 0 then
      `Error (false, "hex input has an odd number of digits")
    else begin
    let bytes =
      try
        String.init
          (String.length hex / 2)
          (fun i -> Char.chr (int_of_string ("0x" ^ String.sub hex (2 * i) 2)))
      with _ -> ""
    in
    match Wire.Header.decode bytes with
    | Ok (h, consumed) ->
      Printf.printf "version  %d\nttl      %d\nroute_id %s\nheader   %d bytes\n"
        h.Wire.Header.version h.Wire.Header.ttl
        (Bignum.Z.to_string h.Wire.Header.route_id)
        consumed;
      `Ok ()
    | Error e -> `Error (false, Format.asprintf "%a" Wire.Header.pp_error e)
    end
  in
  Cmd.v
    (Cmd.info "parse" ~doc:"Parse a KAR wire header")
    Term.(ret (const run $ hex))

(* --- topology-based commands --- *)

let topo_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "topo" ] ~docv:"FILE" ~doc:"Topology file (Topo.Serial format).")

let load_topo path =
  match Topo.Serial.load path with
  | Ok g -> Ok g
  | Error e -> Error (Format.asprintf "%s: %a" path Topo.Serial.pp_error e)

(* Exhaustive resilience check of one planned route: every failure set of
   up to max_k core links, deflection draws as adversarial choice. *)
let verify_plan g ~plan ~policy ~src ~dst ~max_k =
  let module V = Kar_verify.Verifier in
  let inst = V.prepare g ~plan ~policy ~src ~dst () in
  let links = Experiments.Verify.core_links g in
  for k = 1 to max_k do
    let sets = Experiments.Verify.failure_sets links ~k in
    let counts = Hashtbl.create 8 in
    let first_refuted = ref None in
    List.iter
      (fun failed ->
        let cls, _ = V.verify inst ~failed in
        Hashtbl.replace counts cls
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts cls));
        if !first_refuted = None && cls <> V.Guaranteed && cls <> V.Disconnected
        then first_refuted := Some (failed, cls))
      sets;
    let cells =
      List.filter_map
        (fun cls ->
          match Hashtbl.find_opt counts cls with
          | Some n ->
            Some (Printf.sprintf "%s=%d" (V.classification_to_string cls) n)
          | None -> None)
        V.all_classifications
    in
    Printf.printf "  k=%d (%d failure sets): %s\n" k (List.length sets)
      (String.concat " " cells);
    match !first_refuted with
    | None -> ()
    | Some (failed, cls) ->
      let names =
        List.map
          (fun id ->
            let l = Topo.Graph.link g id in
            Printf.sprintf "SW%d-SW%d"
              (Topo.Graph.label g l.Topo.Graph.ep0.Topo.Graph.node)
              (Topo.Graph.label g l.Topo.Graph.ep1.Topo.Graph.node))
          failed
      in
      (match V.refute inst ~failed with
       | Some r, init_stranded ->
         let violations =
           Kar_verify.Counterexample.check inst r ~init_stranded
         in
         let ok =
           Kar_verify.Counterexample.well_formed violations
           && Kar_verify.Counterexample.refutes violations
         in
         Printf.printf
           "    first refutation [%s] failed={%s}: machine check %s\n"
           (V.classification_to_string cls)
           (String.concat "," names)
           (if ok then "OK" else "FAILED")
       | None, _ -> ())
  done

let plan_cmd =
  let src =
    Arg.(required & opt (some int) None & info [ "src" ] ~docv:"LABEL" ~doc:"Source edge label.")
  in
  let dst =
    Arg.(required & opt (some int) None & info [ "dst" ] ~docv:"LABEL" ~doc:"Destination edge label.")
  in
  let disjoint =
    Arg.(value & opt int 1 & info [ "k" ] ~docv:"K" ~doc:"Edge-disjoint plans to compute.")
  in
  let verify_flag =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:
            "Exhaustively verify each printed plan against every failure \
             set of up to $(b,--max-k) core links (deflection draws as \
             adversarial choice) and report the verdict classes.")
  in
  let max_k =
    Arg.(
      value & opt int 1
      & info [ "max-k" ] ~docv:"K"
          ~doc:"Largest failure-set size for --verify (default 1).")
  in
  let policy =
    let policy_conv =
      Arg.enum
        (List.map (fun p -> (Kar.Policy.to_string p, p)) Kar.Policy.all)
    in
    Arg.(
      value
      & opt policy_conv Kar.Policy.Not_input_port
      & info [ "policy" ] ~docv:"P"
          ~doc:"Deflection policy for --verify: none | hp | avp | nip.")
  in
  let run topo src dst k verify max_k policy =
    match load_topo topo with
    | Error m -> `Error (false, m)
    | Ok g ->
      (match (Topo.Graph.find_label g src, Topo.Graph.find_label g dst) with
       | Some s, Some d ->
         let plans = Kar.Controller.disjoint_plans g ~src:s ~dst:d ~k in
         if plans = [] then
           (* the shortest path's own error says why: no path, or a route
              ID wider than the header *)
           match Kar.Controller.route g ~src:s ~dst:d ~protection:[] with
           | exception Invalid_argument m -> `Error (false, m)
           | _ -> `Error (false, "no route between the endpoints")
         else begin
           List.iteri
             (fun i plan ->
               Printf.printf "plan %d: route_id=%s bits=%d path=%s\n" i
                 (Bignum.Z.to_string plan.Kar.Route.route_id)
                 plan.Kar.Route.bit_length
                 (String.concat "->"
                    (List.map
                       (fun v -> string_of_int (Topo.Graph.label g v))
                       plan.Kar.Route.core_path));
               if verify then
                 verify_plan g ~plan ~policy ~src:s ~dst:d ~max_k)
             plans;
           `Ok ()
         end
       | _ -> `Error (false, "unknown src or dst label"))
  in
  Cmd.v
    (Cmd.info "plan" ~doc:"Plan route IDs between two edge nodes of a topology")
    Term.(
      ret
        (const run $ topo_arg $ src $ dst $ disjoint $ verify_flag $ max_k
       $ policy))

let ids_cmd =
  let strategy =
    let strategy_conv =
      Arg.enum
        [ ("primes", Kar.Ids.Primes_ascending);
          ("degree", Kar.Ids.Degree_descending);
          ("prime-powers", Kar.Ids.Prime_powers) ]
    in
    Arg.(
      value
      & opt strategy_conv Kar.Ids.Primes_ascending
      & info [ "strategy" ] ~docv:"S"
          ~doc:"Assignment strategy: primes | degree | prime-powers.")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o" ] ~docv:"FILE"
           ~doc:"Write the relabelled topology here (default: stdout).")
  in
  let run topo strategy output =
    match load_topo topo with
    | Error m -> `Error (false, m)
    | Ok g ->
      let relabelled = Kar.Ids.assign g strategy in
      (match Kar.Ids.validate relabelled with
       | [] ->
         let text = Topo.Serial.to_string relabelled in
         (match output with
          | None -> print_string text
          | Some path ->
            Out_channel.with_open_text path (fun oc -> output_string oc text));
         `Ok ()
       | issues -> `Error (false, String.concat "; " issues))
  in
  Cmd.v
    (Cmd.info "ids" ~doc:"Assign pairwise-coprime switch IDs to a topology")
    Term.(ret (const run $ topo_arg $ strategy $ output))

let export_cmd =
  let net_arg =
    let net_conv =
      Arg.enum
        [ ("fig1", Topo.Nets.fig1_six); ("net15", Topo.Nets.net15);
          ("rnp28", Topo.Nets.rnp28); ("fig8", Topo.Nets.rnp_fig8) ]
    in
    Arg.(
      value
      & opt net_conv Topo.Nets.net15
      & info [ "net" ] ~docv:"NAME"
          ~doc:"Built-in scenario: fig1 | net15 | rnp28 | fig8.")
  in
  let run sc =
    print_string (Topo.Serial.to_string sc.Topo.Nets.graph);
    `Ok ()
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Print a built-in paper topology in Serial format")
    Term.(ret (const run $ net_arg))

let () =
  let info =
    Cmd.info "kar_route" ~doc:"Encode, decode and plan KAR route IDs"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ encode_cmd; decode_cmd; header_cmd; parse_cmd; plan_cmd; ids_cmd;
            export_cmd ]))

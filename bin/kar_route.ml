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

let route =
  let parse s =
    match Bignum.Z.of_string s with
    | r when Bignum.Z.sign r >= 0 -> Ok r
    | _ -> Error (`Msg "route IDs are non-negative")
    | exception Invalid_argument m -> Error (`Msg m)
  in
  Arg.(
    required
    & opt (some (conv (parse, Bignum.Z.pp))) None
    & info [ "R"; "route" ] ~docv:"ROUTE_ID" ~doc:"The route ID.")

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
  let switches =
    Arg.(
      required
      & opt (some (list (Cli.int_from 1))) None
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
  let ttl =
    Arg.(value & opt (Cli.int_from 0 ~max:255) 64 & info [ "ttl" ] ~docv:"TTL"
           ~doc:"Initial TTL.")
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
  let disjoint =
    Arg.(value & opt (Cli.int_from 1) 1 & info [ "k" ] ~docv:"K"
           ~doc:"Edge-disjoint plans to compute.")
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
      value & opt (Cli.int_from 1) 1
      & info [ "max-k" ] ~docv:"K"
          ~doc:"Largest failure-set size for --verify (default 1).")
  in
  let run topology src dst k verify max_k policy =
    let g = topology.Cli.graph in
    match Cli.endpoints g ~src ~dst with
    | Error m -> `Error (false, m)
    | Ok (s, d) ->
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
  in
  Cmd.v
    (Cmd.info "plan" ~doc:"Plan route IDs between two edge nodes of a topology")
    Term.(
      ret
        (const run $ Cli.topology "topo" $ Cli.src $ Cli.dst $ disjoint
       $ verify_flag $ max_k $ Cli.policy))

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
  let run topology strategy output =
    let relabelled = Kar.Ids.assign topology.Cli.graph strategy in
    match Kar.Ids.validate relabelled with
    | [] ->
      let text = Topo.Serial.to_string relabelled in
      (match output with
       | None -> print_string text
       | Some path ->
         Out_channel.with_open_text path (fun oc -> output_string oc text));
      `Ok ()
    | issues -> `Error (false, String.concat "; " issues)
  in
  Cmd.v
    (Cmd.info "ids" ~doc:"Assign pairwise-coprime switch IDs to a topology")
    Term.(ret (const run $ Cli.topology "topo" $ strategy $ output))

let export_cmd =
  let run topology =
    print_string (Topo.Serial.to_string topology.Cli.graph);
    `Ok ()
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Print a topology in Serial format")
    Term.(ret (const run $ Cli.topology "net" ~default:"net15"))

let () =
  let info =
    Cmd.info "kar_route" ~doc:"Encode, decode and plan KAR route IDs"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ encode_cmd; decode_cmd; header_cmd; parse_cmd; plan_cmd; ids_cmd;
            export_cmd ]))

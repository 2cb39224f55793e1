(* The command-line vocabulary the four binaries share: one definition of
   each argument they have in common, and one converter per kind of value.
   A value outside its flag's domain is a usage error (exit 124), reported
   where it is parsed, before anything runs. *)

open Cmdliner
module Graph = Topo.Graph

(* --- numbers --- *)

(* [base]'s values that satisfy [ok]; [expected] names the domain. *)
let within base ~expected ok =
  let parse s =
    match Arg.conv_parser base s with
    | Ok v when ok v -> Ok v
    | Ok _ ->
      Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
    | Error _ as e -> e
  in
  Arg.conv ~docv:(Arg.conv_docv base) (parse, Arg.conv_printer base)

(* An integer of at least [min], and at most [max] when given. *)
let int_from ?(max = max_int) min =
  within Arg.int
    ~expected:
      (if max = max_int then Printf.sprintf "an integer >= %d" min
       else Printf.sprintf "an integer from %d to %d" min max)
    (fun n -> n >= min && n <= max)

let positive_float =
  within Arg.float ~expected:"a finite number > 0" (fun x ->
      Float.is_finite x && x > 0.0)

let nonneg_float =
  within Arg.float ~expected:"a finite number >= 0" (fun x ->
      Float.is_finite x && x >= 0.0)

(* --- topologies --- *)

type topology = {
  name : string; (** as given on the command line *)
  graph : Graph.t;
  failures : Topo.Nets.failure_case list; (** a builtin's failure cases *)
}

let builtins =
  [ ("fig1", Topo.Nets.fig1_six); ("net15", Topo.Nets.net15);
    ("rnp28", Topo.Nets.rnp28); ("fig8", Topo.Nets.rnp_fig8) ]

let parse_topology name =
  let gen n =
    match int_of_string_opt n with
    | Some n when n >= 4 ->
      Ok { name; graph = Experiments.Service.testbed ~n_core:n (); failures = [] }
    | _ -> Error (`Msg (Printf.sprintf "%s: gen:N needs an integer N >= 4" name))
  in
  match (List.assoc_opt name builtins, String.split_on_char ':' name) with
  | Some sc, _ ->
    Ok { name; graph = sc.Topo.Nets.graph; failures = sc.Topo.Nets.failures }
  | None, [ "gen" ] -> gen "32"
  | None, [ "gen"; n ] -> gen n
  | None, _ when Sys.file_exists name ->
    (match Topo.Serial.load name with
     | Ok graph -> Ok { name; graph; failures = [] }
     | Error e ->
       Error (`Msg (Format.asprintf "%s: %a" name Topo.Serial.pp_error e))
     | exception Sys_error m -> Error (`Msg m))
  | None, _ ->
    Error
      (`Msg
        (Printf.sprintf
           "unknown topology %S (fig1|net15|rnp28|fig8, gen:N or a file)" name))

let topology_conv =
  Arg.conv ~docv:"TOPO"
    (parse_topology, fun ppf t -> Format.pp_print_string ppf t.name)

(* The [--name] topology, required unless it has a [default]. *)
let topology ?default name =
  let doc =
    "Topology: the paper's $(b,fig1), $(b,net15), $(b,rnp28) or $(b,fig8), \
     $(b,gen:N) (Waxman testbed of N >= 4 core switches, one edge host \
     each; $(b,gen) is gen:32), or a topology file in Topo.Serial format \
     (see $(b,kar_route export))."
  in
  let i = Arg.info [ name ] ~docv:"TOPO" ~doc in
  match default with
  | None -> Arg.(required & opt (some topology_conv) None & i)
  | Some d ->
    Arg.(value & opt topology_conv (Result.get_ok (parse_topology d)) & i)

(* --- endpoints --- *)

let label name ~doc =
  Arg.(required & opt (some int) None & info [ name ] ~docv:"LABEL" ~doc)

let src = label "src" ~doc:"Source edge node label."
let dst = label "dst" ~doc:"Destination edge node label."

(* The edge nodes the --src and --dst labels name. *)
let endpoints g ~src ~dst =
  let edge flag l =
    match Graph.find_label g l with
    | None -> Error (Printf.sprintf "--%s %d: no node has this label" flag l)
    | Some v when Graph.is_core g v ->
      Error
        (Printf.sprintf "--%s %d: SW%d is a core switch, not an edge node"
           flag l l)
    | Some v -> Ok v
  in
  match (edge "src" src, edge "dst" dst) with
  | Ok s, Ok d -> Ok (s, d)
  | (Error _ as e), _ | _, (Error _ as e) -> e

(* --- policy, levels, jobs, scenario --- *)

let policy =
  let policies =
    Arg.enum (List.map (fun p -> (Kar.Policy.to_string p, p)) Kar.Policy.all)
  in
  Arg.(value & opt policies Kar.Policy.Not_input_port
       & info [ "policy" ] ~docv:"P" ~doc:"Deflection policy: none|hp|avp|nip.")

(* A comma-separated list of protection levels. *)
let levels_conv =
  let parse s =
    let named =
      List.map
        (fun l -> (l, Kar.Controller.level_of_string l))
        (String.split_on_char ',' s)
    in
    match List.find_opt (fun (_, l) -> l = None) named with
    | Some (l, _) -> Error (`Msg (Printf.sprintf "unknown level %S" l))
    | None -> Ok (Array.of_list (List.filter_map snd named))
  in
  let print ppf ls =
    Format.pp_print_string ppf
      (String.concat ","
         (Array.to_list (Array.map Kar.Controller.level_to_string ls)))
  in
  Arg.conv ~docv:"LEVELS" (parse, print)

(* -j N sets the shared pool's width; 0 leaves it at
   Util.Pool.default_jobs (). *)
let jobs =
  let doc =
    "Worker domains for parallel work (clamped to 1-16).  Output is \
     byte-identical at any value.  0, the default, means $(b,KAR_JOBS) if \
     set, else the machine's recommended domain count."
  in
  Term.(
    const (fun j -> if j > 0 then Util.Pool.set_jobs j)
    $ Arg.(value & opt (int_from 0) 0 & info [ "j"; "jobs" ] ~docv:"N" ~doc))

let scenario =
  let spec =
    Arg.conv' ~docv:"SPEC"
      ( Kar_scenario.Spec.parse,
        fun ppf s -> Format.pp_print_string ppf (Kar_scenario.Spec.to_string s) )
  in
  let doc =
    "Failure schedule applied during the run: \
     $(b,flap:links=N,period=S,duty=D,seed=K), \
     $(b,regional:groups=N,mtbf=S,mttr=S,seed=K), \
     $(b,adversarial:k=N,period=S,hold=S,level=L) or \
     $(b,events:fail@T=A-B,repair@T=#ID,...), merged with the binary's own \
     failure flags.  Generated before the run, so results are \
     byte-identical at any pool width or region count."
  in
  Arg.(value & opt (some spec) None & info [ "scenario" ] ~docv:"SPEC" ~doc)

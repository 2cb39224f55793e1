(* Command-line entry point: regenerate any of the paper's tables and
   figures, or the ablations, by name.  The catalogue itself (ids, groups,
   aliases, typo suggestions) lives in Experiments.Registry. *)

module Registry = Experiments.Registry

let run_entry ~metrics profile (en : Registry.entry) =
  let render =
    match (metrics, en.Registry.metrics) with
    | true, Some f -> f
    | _ -> en.Registry.run
  in
  print_string (render profile);
  print_newline ()

let unknown_name name =
  let nearest, d = Registry.nearest name in
  if d <= max 2 (String.length name / 2) then
    Printf.eprintf
      "unknown experiment %S; did you mean %S? (--list shows all ids)\n" name
      nearest
  else Printf.eprintf "unknown experiment %S; --list shows all ids\n" name;
  exit 1

let run_one ~metrics profile name =
  match Registry.find name with
  | `Entry en -> run_entry ~metrics profile en
  | `Group g -> List.iter (run_entry ~metrics profile) g.Registry.entries
  | `Unknown -> unknown_name name

(* --list: the whole catalogue, or just the named experiments/groups
   (aliases resolve here exactly as they do when running).  Entries
   instrumented on the unified metrics registry are marked. *)
let print_entry (en : Registry.entry) =
  Printf.printf "  %-10s %s%s\n" en.Registry.id en.Registry.doc
    (if en.Registry.metrics <> None then " [metrics]" else "")

let print_group (g : Registry.group) =
  Printf.printf "%s (alias: %s):\n" g.Registry.name g.Registry.alias;
  List.iter print_entry g.Registry.entries

let list_catalogue names =
  (match names with
   | [] -> List.iter print_group Registry.groups
   | names ->
     List.iter
       (fun name ->
         match Registry.find name with
         | `Entry en -> print_entry en
         | `Group g -> print_group g
         | `Unknown -> unknown_name name)
       names);
  print_string
    "entries marked [metrics] emit unified-registry snapshots under \
     --metrics\n"

open Cmdliner

let names_arg =
  let doc =
    "Experiments to run (default: all).  A group alias (e.g. \
     $(b,ablations)) runs the whole group.  Use --list to see ids."
  in
  Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT" ~doc)

let list_flag =
  let doc =
    "List available experiment ids and exit (with names: only those \
     experiments or groups).  Entries marked $(b,[metrics]) support \
     --metrics."
  in
  Arg.(value & flag & info [ "list" ] ~doc)

let metrics_flag =
  let doc =
    "Append the unified metrics-registry summary (and span table) to the \
     output of metrics-capable experiments ($(b,--list) marks them); \
     other experiments run unchanged."
  in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let paper_flag =
  let doc =
    "Run with the paper's full durations and repetition counts (slow); the \
     default is a time-compressed profile with identical mechanisms."
  in
  Arg.(value & flag & info [ "paper" ] ~doc)

let max_k_arg =
  let doc =
    "Cap the exhaustive resilience verifier's failure-set size (the \
     $(b,verify) experiment) on every topology; 0 keeps the per-topology \
     defaults (net15 k<=3, rnp28 k<=2)."
  in
  Arg.(value & opt (Cli.int_from 0) 0 & info [ "max-k" ] ~docv:"K" ~doc)

(* KAR_LOG=info|debug turns on the simulator's log sources (stderr). *)
let setup_logging () =
  match Sys.getenv_opt "KAR_LOG" with
  | Some level ->
    let level =
      match level with
      | "debug" -> Some Logs.Debug
      | "info" -> Some Logs.Info
      | _ -> Some Logs.Warning
    in
    Logs.set_reporter (Logs_fmt.reporter ());
    Logs.set_level level
  | None -> ()

let main names list metrics paper () max_k =
  setup_logging ();
  if list then list_catalogue names
  else begin
    if max_k > 0 then Experiments.Verify.max_k_override := Some max_k;
    let profile =
      if paper then Experiments.Profile.paper else Experiments.Profile.from_env ()
    in
    match names with
    | [] -> List.iter (run_entry ~metrics profile) Registry.all
    | names -> List.iter (run_one ~metrics profile) names
  end

let cmd =
  let doc = "Regenerate the KAR paper's tables and figures" in
  let info = Cmd.info "kar_experiments" ~doc in
  Cmd.v info
    Term.(
      const main $ names_arg $ list_flag $ metrics_flag $ paper_flag
      $ Cli.jobs $ max_k_arg)

let () = exit (Cmd.eval cmd)

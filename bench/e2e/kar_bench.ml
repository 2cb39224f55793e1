(* kar_bench: the end-to-end benchmark of the data plane, the plan server
   and the verifier.  See README.md in this directory.

   kar_bench --workload W --seed N --seconds S --trace 0|1 [--trace-dir DIR]
     Runs one workload for S seconds.  The last line of standard output is
     one JSON object {"correct", "attempted", "failed", "metrics"}: the
     end-to-end metrics with --trace 0, the per-layer metrics with
     --trace 1.  The human-readable report goes to standard error; with
     --trace-dir, the last traced pass is also written to
     DIR/<workload>.trace.json as trace-event JSON.

   kar_bench run --seed N [--seconds S] [--json OUT] [--trace DIR] [--workload W]...
     Runs every workload (or the named ones), each in a fresh process, and
     prints every metric with its unit.  Exits non-zero if any output
     check failed.

   kar_bench compare A.json... -- B.json...
     Compares saved runs of two commits, one row per workload and
     end-to-end metric, with the bounds in BENCHMARK.json.

   kar_bench expected [--seed N]
     Prints the deterministic values of one full-size pass of every
     workload: the content of expected/seed1.json for seed 1. *)

open E2e

let usage () =
  prerr_string
    "usage: kar_bench --workload W --seed N --seconds S --trace 0|1 [--trace-dir DIR]\n\
    \       kar_bench run --seed N [--seconds S] [--json OUT] [--trace DIR] [--workload W]...\n\
    \       kar_bench compare A.json... -- B.json... [--bench BENCHMARK.json]\n\
    \       kar_bench expected [--seed N]\n";
  exit 2

let die fmt = Printf.ksprintf (fun msg -> prerr_endline ("kar_bench: " ^ msg); exit 2) fmt

let int_arg flag s =
  match int_of_string_opt s with
  | Some v when v >= 0 -> v
  | _ -> die "%s wants a non-negative integer, got %S" flag s

let seconds_arg s =
  match float_of_string_opt s with
  | Some v when v > 0.0 && v <= 600.0 -> v
  | _ -> die "--seconds wants a number of seconds in (0, 600], got %S" s

let workload_arg name =
  match Workloads.find name with
  | Some w -> w
  | None ->
    die "unknown workload %S (known: %s)" name
      (String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

(* BENCHMARK.json's run_seconds *)
let default_seconds = 20.0

(* --- one workload: what BENCHMARK.json's command runs --- *)

let one args =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None and trace_dir = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := Some (workload_arg v); parse rest
    | "--seed" :: v :: rest -> seed := Some (int_arg "--seed" v); parse rest
    | "--seconds" :: v :: rest -> seconds := Some (seconds_arg v); parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); parse rest
    | "--trace-dir" :: v :: rest -> trace_dir := Some v; parse rest
    | arg :: _ -> prerr_endline ("kar_bench: unexpected argument " ^ arg); usage ()
  in
  parse args;
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some seed, Some seconds, Some trace ->
    let r =
      Harness.run w ~seed ~seconds ~trace ~keep_trace:(!trace_dir <> None) ()
    in
    prerr_string r.Harness.report;
    (match (!trace_dir, r.Harness.trace_json) with
     | Some dir, Some json ->
       let path = Filename.concat dir (w.Workloads.name ^ ".trace.json") in
       write_file path json;
       Printf.eprintf "trace written to %s\n" path
     | _ -> ());
    print_endline (Harness.result_json r)
  | _ -> usage ()

(* --- every workload, each in its own process --- *)

let child args =
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list (Sys.executable_name :: args)) in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' |> List.filter (( <> ) "") in
  match (Unix.close_process_in ic, List.rev lines) with
  | Unix.WEXITED 0, last :: _ -> ( try Some (Json.parse last) with Json.Parse_error _ -> None)
  | _ -> None

let run_all args =
  let seed = ref 1 and seconds = ref default_seconds and json = ref None in
  let trace_dir = ref None and names = ref [] in
  let rec parse = function
    | [] -> ()
    | "--seed" :: v :: rest -> seed := int_arg "--seed" v; parse rest
    | "--seconds" :: v :: rest -> seconds := seconds_arg v; parse rest
    | "--json" :: v :: rest -> json := Some v; parse rest
    | "--trace" :: v :: rest -> trace_dir := Some v; parse rest
    | "--workload" :: v :: rest -> names := workload_arg v :: !names; parse rest
    | arg :: _ -> prerr_endline ("kar_bench: unexpected argument " ^ arg); usage ()
  in
  parse args;
  let workloads = if !names = [] then Workloads.all else List.rev !names in
  let common w trace =
    [ "--workload"; w.Workloads.name; "--seed"; string_of_int !seed;
      "--seconds"; Printf.sprintf "%g" !seconds; "--trace"; trace ]
  in
  let ok = ref true in
  let entries =
    List.map
      (fun w ->
        let untraced = child (common w "0") in
        let traced =
          match !trace_dir with
          | None -> None
          | Some dir -> child (common w "1" @ [ "--trace-dir"; dir ])
        in
        Printf.printf "== %s (one op = one %s)\n" w.Workloads.name w.Workloads.op;
        let show label = function
          | None ->
            ok := false;
            Printf.printf "  %s run failed\n" label;
            Json.Null
          | Some r ->
            if Json.member "correct" r <> Json.Bool true then begin
              ok := false;
              Printf.printf "  %s run: output check FAILED\n" label
            end;
            Printf.printf "  %s: attempted %.0f, failed %.0f\n" label
              (Json.to_float (Json.member "attempted" r))
              (Json.to_float (Json.member "failed" r));
            List.iter
              (fun (k, m) ->
                Printf.printf "  %-28s %16.6g %s\n" k
                  (Json.to_float (Json.member "value" m))
                  (Json.to_str (Json.member "unit" m)))
              (Json.to_assoc (Json.member "metrics" r));
            r
        in
        let u = show "untraced" untraced in
        let entry = [ ("untraced", u) ] in
        let entry =
          if !trace_dir = None then entry else entry @ [ ("traced", show "traced" traced) ]
        in
        (w.Workloads.name, Json.Obj entry))
      workloads
  in
  (match !json with
   | Some path ->
     write_file path
       (Json.to_string
          (Json.Obj
             [ ("seed", Json.Num (float_of_int !seed));
               ("seconds", Json.Num !seconds);
               ("workloads", Json.Obj entries) ])
       ^ "\n");
     Printf.printf "wrote %s\n" path
   | None -> ());
  if not !ok then exit 1

let expected args =
  let seed = match args with [ "--seed"; v ] -> int_arg "--seed" v | [] -> 1 | _ -> usage () in
  let rows = List.map (fun w -> Harness.fingerprint w ~seed) Workloads.all in
  print_string
    ("{\n"
    ^ String.concat ",\n"
        (List.map (fun (k, v) -> Printf.sprintf "  %S: %s" k (Json.to_string v)) rows)
    ^ "\n}\n")

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: rest -> run_all rest
  | "compare" :: rest -> Compare.main rest
  | "expected" :: rest -> expected rest
  | args -> one args

(* Regenerates the golden trace fixtures under test/fixtures/.  Run from
   the repo root after an intentional change to the simulator's decision
   sequence:

     dune exec test/gen_fixtures.exe -- test/fixtures

   The replay test (test_trace.ml, "fixtures" group) diffs the checked-in
   files byte for byte against a fresh run of the same canonical
   scenarios. *)

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "test/fixtures" in
  let write name events =
    let path = Filename.concat dir name in
    let oc = open_out path in
    List.iter
      (fun e ->
        output_string oc (Trace.Event.to_jsonl e);
        output_char oc '\n')
      events;
    close_out oc;
    Printf.printf "wrote %s (%d events)\n" path (List.length events)
  in
  write "fig1_nip_partial.jsonl" (Experiments.Invariants.canonical_trace `Fig1);
  write "net15_nip_full.jsonl" (Experiments.Invariants.canonical_trace `Net15);
  (* the serving-layer fixture is already rendered JSONL *)
  let path = Filename.concat dir "service_1k.jsonl" in
  let oc = open_out path in
  let contents = Experiments.Service.canonical_trace () in
  output_string oc contents;
  close_out oc;
  Printf.printf "wrote %s (%d lines)\n" path
    (String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 contents);
  (* the metrics fixture is the registry snapshot stream of the canonical
     serving run (one mid-run link failure), already rendered JSONL *)
  let path = Filename.concat dir "service_metrics_1k.jsonl" in
  let oc = open_out path in
  let contents = Experiments.Service.canonical_metrics () in
  output_string oc contents;
  close_out oc;
  Printf.printf "wrote %s (%d lines)\n" path
    (String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 contents);
  (* the churn fixture is the canonical net15 flap event stream, already
     rendered JSONL *)
  let path = Filename.concat dir "churn_net15_flap.jsonl" in
  let oc = open_out path in
  let contents = Experiments.Churn.fixture_lines () in
  output_string oc contents;
  close_out oc;
  Printf.printf "wrote %s (%d lines)\n" path
    (String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 contents);
  (* the plan-digest fixture is one JSON line per testbed, level and
     failed-link set *)
  let path = Filename.concat dir "plan_digests.jsonl" in
  let oc = open_out path in
  let contents = Experiments.Service.plan_digests () in
  output_string oc contents;
  close_out oc;
  Printf.printf "wrote %s (%d lines)\n" path
    (String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 contents);
  (* the verifier fixture is verdict + counterexample lines, already JSON *)
  let path = Filename.concat dir "verify_net15_k2.jsonl" in
  let oc = open_out path in
  let lines = Experiments.Verify.fixture_lines () in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    lines;
  close_out oc;
  Printf.printf "wrote %s (%d lines)\n" path (List.length lines)

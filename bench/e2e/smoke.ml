(* Smoke test of the benchmark, run by `dune runtest`: every workload at a
   small size.  It checks that deterministic values repeat across passes,
   that the sharded data plane computes what the serial one does, and that
   the metrics BENCHMARK.json names are exactly the ones emitted, each
   with its unit. *)

open E2e

let failures = ref 0

let check cond fmt =
  Printf.ksprintf
    (fun msg ->
      if not cond then begin
        incr failures;
        prerr_endline ("FAIL " ^ msg)
      end)
    fmt

let spec = Json.read_file "../../BENCHMARK.json"

let listed key = Json.to_list (Json.member key spec)
let field k m = Json.to_str (Json.member k m)
let with_units key = List.map (fun m -> (field "name" m, field "unit" m)) (listed key)

let size = 0.01

let () =
  check
    (List.map (field "name") (listed "workloads")
    = List.map (fun w -> w.Workloads.name) Workloads.all)
    "BENCHMARK.json lists the workloads kar_bench runs";
  List.iter
    (fun (w : Workloads.t) ->
      let a, _ = Harness.one_pass w ~seed:5 ~size ~traced:false in
      let b, _ = Harness.one_pass w ~seed:5 ~size ~traced:true in
      check (a.Workloads.det = b.Workloads.det) "%s: deterministic values repeat" w.name;
      check (a.Workloads.problems = []) "%s: output checks pass (%s)" w.name
        (String.concat "; " a.Workloads.problems);
      List.iter
        (fun (trace, key) ->
          let r = Harness.run w ~seed:5 ~seconds:0.0 ~trace ~size () in
          check r.Harness.correct "%s: run is correct (%s)" w.name
            (String.concat "; " r.Harness.problems);
          check
            (List.map (fun (k, _, u) -> (k, u)) r.Harness.metrics = with_units key)
            "%s: emits exactly the %s metrics of BENCHMARK.json, with their units"
            w.name key)
        [ (false, "end_to_end"); (true, "per_layer") ])
    Workloads.all;
  (* long enough for the failure schedule to deflect and re-encode *)
  let sharded = Option.get (Workloads.find "dp-sharded") in
  let p, _ = Harness.one_pass sharded ~seed:7 ~size:0.25 ~traced:false in
  check
    (p.Workloads.problems = [] && List.assoc "net.reencodes" p.Workloads.det > 0.0)
    "dp-sharded equals its serial twin under churn (%s)"
    (String.concat "; " p.Workloads.problems);
  if !failures > 0 then exit 1;
  print_endline "benchmark smoke test: ok"

(* Command-line entry point for the online route-plan server: generate a
   seeded open-loop workload against a topology, serve it, and report
   latency/cache/batching metrics.  Topology events come from repeatable
   --fail-at/--repair-at flags and/or a --scenario failure schedule
   (flapping, regional, adversarial) — both compile to the same
   Kar_scenario event stream — and the deterministic service event stream
   can be dumped as JSONL. *)

module Workload = Kar_service.Workload
module Server = Kar_service.Server
module Scenario = Kar_scenario

let report_to_string (r : Server.report) =
  let ms v = Printf.sprintf "%.3f" (v *. 1e3) in
  Util.Texttab.render_kv
    [
      ("requests", string_of_int r.Server.requests);
      ("virtual makespan (s)", Printf.sprintf "%.3f" r.Server.makespan);
      ("virtual throughput (req/s)", Printf.sprintf "%.0f" r.Server.virtual_rps);
      ("cache hit ratio", Printf.sprintf "%.1f%%" (100.0 *. r.Server.hit_ratio));
      ("stale-serve rate", Printf.sprintf "%.1f%%" (100.0 *. r.Server.stale_rate));
      ( "cache hits/misses/stale",
        Printf.sprintf "%d/%d/%d" r.Server.cache_hits r.Server.cache_misses
          r.Server.cache_stale );
      ("cache evictions", string_of_int r.Server.cache_evictions);
      ("topology epoch", string_of_int r.Server.epoch);
      ("latency mean (ms)", ms r.Server.mean_latency);
      ("latency p50 (ms)", ms r.Server.p50);
      ("latency p95 (ms)", ms r.Server.p95);
      ("latency p99 (ms)", ms r.Server.p99);
      ("plans computed", string_of_int r.Server.planned);
      ("batches", string_of_int r.Server.batches);
      ("max batch", string_of_int r.Server.max_batch);
      ("coalesced (single-flight)", string_of_int r.Server.coalesced);
      ("stale in-flight plans", string_of_int r.Server.stale_completions);
      ("max keys queued+in-flight", string_of_int r.Server.max_depth);
      ("max requests waiting", string_of_int r.Server.max_waiting);
      ("unroutable", string_of_int r.Server.unroutable);
    ]

let run topology requests rate skew seed levels cache_cap batch_size
    batch_delay workers fail_ats repair_ats fail_link scenario trace metrics
    metrics_every metrics_prom () =
  let graph = topology.Cli.graph in
  let spec =
    {
      Workload.default with
      Workload.n = requests;
      rate;
      skew;
      seed;
      levels;
    }
  in
  let reqs = Workload.generate graph spec in
  let config =
    { Server.cache_capacity = cache_cap; batch_size; batch_delay; workers }
  in
  (* Both event sources compile to one Kar_scenario stream: the repeatable
     --fail-at/--repair-at flags become explicit events, --scenario
     generates its model over the arrival horizon, and the merged
     normalized stream is the server's failure schedule. *)
  let horizon =
    let n = Array.length reqs in
    if n = 0 then 1.0 else Stdlib.max 1e-6 reqs.(n - 1).Workload.arrival
  in
  let explicit =
    if fail_ats = [] && repair_ats = [] then []
    else
      let link =
        Scenario.Spec.Id
          (match (fail_link, topology.Cli.failures) with
           | Some l, _ -> l
           | None, fc :: _ -> fc.Topo.Nets.link
           | None, [] -> Experiments.Service.storm_link graph)
      in
      List.map (fun t -> (t, Scenario.Event.Fail, link)) fail_ats
      @ List.map (fun t -> (t, Scenario.Event.Repair, link)) repair_ats
  in
  let events =
    match Scenario.Gen.compile graph ~horizon ~explicit scenario with
    | Ok evs -> evs
    | Error e ->
      Printf.eprintf "scenario: %s\n" e;
      exit 1
  in
  if events <> [] then
    Printf.printf "scenario: %d topology events over %.3f s\n"
      (List.length events) horizon;
  let failures = Scenario.Event.to_failures events in
  let trace_out = Option.map open_out trace in
  let sink =
    match trace_out with
    | None -> None
    | Some oc ->
      Some
        (fun e ->
          output_string oc (Kar_service.Event.to_jsonl e);
          output_char oc '\n')
  in
  let metrics_out =
    Option.map (fun f -> if f = "-" then stdout else open_out f) metrics
  in
  let metrics_sink =
    Option.map
      (fun oc line ->
        output_string oc line;
        output_char oc '\n')
      metrics_out
  in
  let server = Server.create ~config ~graph () in
  let report =
    Server.run server ?sink ~failures ?metrics_every ?metrics_sink reqs
  in
  Option.iter close_out trace_out;
  Option.iter (fun oc -> if oc != stdout then close_out oc) metrics_out;
  (match metrics_prom with
   | None -> ()
   | Some f ->
     let oc = open_out f in
     output_string oc (Kar_obs.Export.prometheus (Server.registry server));
     close_out oc);
  print_string (report_to_string report);
  if metrics <> None || metrics_prom <> None then begin
    print_string "\n-- metrics --\n";
    print_string (Kar_obs.Export.summary (Server.registry server));
    print_string (Kar_obs.Span.summary (Server.spans server))
  end

open Cmdliner

let requests_arg =
  let doc = "Number of requests in the open-loop workload." in
  Arg.(value & opt (Cli.int_from 0) 10_000
       & info [ "n"; "requests" ] ~docv:"N" ~doc)

let rate_arg =
  let doc = "Mean Poisson arrival rate, requests per second." in
  Arg.(value & opt Cli.positive_float 10_000.0 & info [ "rate" ] ~docv:"R" ~doc)

let skew_arg =
  let doc = "Zipf exponent over (src, dst) pair popularity (0 = uniform)." in
  Arg.(value & opt Cli.nonneg_float 0.9 & info [ "skew" ] ~docv:"S" ~doc)

let seed_arg =
  let doc = "Workload seed; everything downstream is deterministic in it." in
  Arg.(value & opt int 11 & info [ "seed" ] ~docv:"SEED" ~doc)

let levels_arg =
  let doc = "Comma-separated protection levels drawn uniformly per request \
             (unprotected,partial,full)." in
  Arg.(value
       & opt Cli.levels_conv [| Kar.Controller.Unprotected; Kar.Controller.Partial |]
       & info [ "levels" ] ~docv:"LEVELS" ~doc)

let cache_arg =
  let doc = "Plan cache capacity (LRU entries)." in
  Arg.(value & opt (Cli.int_from 1) 256 & info [ "cache" ] ~docv:"N" ~doc)

let batch_size_arg =
  let doc = "Dispatch a batch at this many distinct missed keys." in
  Arg.(value & opt (Cli.int_from 1) 16 & info [ "batch-size" ] ~docv:"N" ~doc)

let batch_delay_arg =
  let doc = "Max seconds a batch stays open before dispatching anyway." in
  Arg.(value & opt Cli.nonneg_float 2e-4 & info [ "batch-delay" ] ~docv:"S" ~doc)

let workers_arg =
  let doc = "Modelled planner threads (virtual-time model; fixed so results \
             do not depend on -j)." in
  Arg.(value & opt (Cli.int_from 1) 4 & info [ "workers" ] ~docv:"N" ~doc)

let fail_at_arg =
  let doc = "Fail a link at this virtual time (epoch bump + replan storm). \
             Repeatable." in
  Arg.(value & opt_all Cli.nonneg_float [] & info [ "fail-at" ] ~docv:"T" ~doc)

let repair_at_arg =
  let doc = "Repair the failed link at this virtual time.  Repeatable." in
  Arg.(value & opt_all Cli.nonneg_float [] & info [ "repair-at" ] ~docv:"T" ~doc)

let fail_link_arg =
  let doc = "Link id the --fail-at/--repair-at flags act on (default: the \
             topology's first failure case, or a popular core link on \
             generated topologies)." in
  Arg.(value & opt (some (Cli.int_from 0)) None
       & info [ "fail-link" ] ~docv:"LINK" ~doc)

let trace_arg =
  let doc = "Write the deterministic service event stream to $(docv) as JSONL." in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc = "Emit periodic sim-clock metrics snapshots (the whole registry \
             as one flat JSON object per interval) to $(docv) as a JSONL \
             time series; $(b,-) writes to stdout.  Byte-identical at any \
             $(b,-j)." in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let metrics_every_arg =
  let doc = "Virtual seconds between metrics snapshots (default: arrival \
             horizon / 64)." in
  Arg.(value & opt (some Cli.positive_float) None
       & info [ "metrics-every" ] ~docv:"S" ~doc)

let metrics_prom_arg =
  let doc = "Dump the end-of-run registry to $(docv) in Prometheus text \
             exposition format." in
  Arg.(value
       & opt (some string) None
       & info [ "metrics-prom" ] ~docv:"FILE" ~doc)

let cmd =
  let doc = "Serve route-plan requests from an online KAR control plane" in
  let info = Cmd.info "kar_serve" ~doc in
  Cmd.v info
    Term.(
      const run $ Cli.topology "net" ~default:"gen:32" $ requests_arg
      $ rate_arg $ skew_arg $ seed_arg $ levels_arg $ cache_arg
      $ batch_size_arg $ batch_delay_arg $ workers_arg $ fail_at_arg
      $ repair_at_arg $ fail_link_arg $ Cli.scenario $ trace_arg $ metrics_arg
      $ metrics_every_arg $ metrics_prom_arg $ Cli.jobs)

let () = exit (Cmd.eval cmd)

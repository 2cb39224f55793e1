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

type net =
  | Net15
  | Rnp28
  | Gen of int

let parse_net = function
  | "net15" -> Ok Net15
  | "rnp28" -> Ok Rnp28
  | s ->
    let gen n = if n >= 4 then Ok (Gen n) else Error (`Msg "gen:N needs N >= 4") in
    (match String.split_on_char ':' s with
     | [ "gen" ] -> gen 32
     | [ "gen"; n ] ->
       (match int_of_string_opt n with
        | Some n -> gen n
        | None -> Error (`Msg (Printf.sprintf "bad generated size %S" n)))
     | _ -> Error (`Msg (Printf.sprintf "unknown topology %S (net15|rnp28|gen:N)" s)))

let graph_of_net = function
  | Net15 -> (Topo.Nets.net15.Topo.Nets.graph, Topo.Nets.net15.Topo.Nets.failures)
  | Rnp28 -> (Topo.Nets.rnp28.Topo.Nets.graph, Topo.Nets.rnp28.Topo.Nets.failures)
  | Gen n -> (Experiments.Service.testbed ~n_core:n (), [])

let parse_levels s =
  let one name =
    match name with
    | "unprotected" -> Ok Kar.Controller.Unprotected
    | "partial" -> Ok Kar.Controller.Partial
    | "full" -> Ok Kar.Controller.Full
    | _ -> Error (`Msg (Printf.sprintf "unknown level %S" name))
  in
  let rec all = function
    | [] -> Ok []
    | x :: tl ->
      (match (one x, all tl) with
       | Ok l, Ok ls -> Ok (l :: ls)
       | (Error _ as e), _ | _, (Error _ as e) -> e)
  in
  match all (String.split_on_char ',' s) with
  | Ok [] -> Error (`Msg "empty level list")
  | Ok ls -> Ok (Array.of_list ls)
  | Error _ as e -> e

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

let run net requests rate skew seed levels cache_cap batch_size batch_delay
    workers fail_ats repair_ats fail_link scenario trace metrics metrics_every
    metrics_prom jobs =
  Util.Pool.set_jobs (if jobs > 0 then jobs else Util.Pool.default_jobs ());
  let graph, failure_cases = graph_of_net net in
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
          (match (fail_link, failure_cases) with
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

let net_arg =
  let net_conv = Arg.conv (parse_net, fun ppf n ->
      Format.pp_print_string ppf
        (match n with Net15 -> "net15" | Rnp28 -> "rnp28" | Gen n -> Printf.sprintf "gen:%d" n))
  in
  let doc = "Topology: the paper's $(b,net15) or $(b,rnp28), or $(b,gen:N) \
             (Waxman testbed, N core switches, one edge host each)." in
  Arg.(value & opt net_conv (Gen 32) & info [ "net" ] ~docv:"NET" ~doc)

let requests_arg =
  let doc = "Number of requests in the open-loop workload." in
  Arg.(value & opt int 10_000 & info [ "n"; "requests" ] ~docv:"N" ~doc)

let rate_arg =
  let doc = "Mean Poisson arrival rate, requests per second." in
  Arg.(value & opt float 10_000.0 & info [ "rate" ] ~docv:"R" ~doc)

let skew_arg =
  let doc = "Zipf exponent over (src, dst) pair popularity (0 = uniform)." in
  Arg.(value & opt float 0.9 & info [ "skew" ] ~docv:"S" ~doc)

let seed_arg =
  let doc = "Workload seed; everything downstream is deterministic in it." in
  Arg.(value & opt int 11 & info [ "seed" ] ~docv:"SEED" ~doc)

let levels_arg =
  let levels_conv =
    Arg.conv
      ( parse_levels,
        fun ppf ls ->
          Format.pp_print_string ppf
            (String.concat ","
               (Array.to_list (Array.map Kar.Controller.level_to_string ls))) )
  in
  let doc = "Comma-separated protection levels drawn uniformly per request \
             (unprotected,partial,full)." in
  Arg.(value
       & opt levels_conv [| Kar.Controller.Unprotected; Kar.Controller.Partial |]
       & info [ "levels" ] ~docv:"LEVELS" ~doc)

let cache_arg =
  let doc = "Plan cache capacity (LRU entries)." in
  Arg.(value & opt int 256 & info [ "cache" ] ~docv:"N" ~doc)

let batch_size_arg =
  let doc = "Dispatch a batch at this many distinct missed keys." in
  Arg.(value & opt int 16 & info [ "batch-size" ] ~docv:"N" ~doc)

let batch_delay_arg =
  let doc = "Max seconds a batch stays open before dispatching anyway." in
  Arg.(value & opt float 2e-4 & info [ "batch-delay" ] ~docv:"S" ~doc)

let workers_arg =
  let doc = "Modelled planner threads (virtual-time model; fixed so results \
             do not depend on -j)." in
  Arg.(value & opt int 4 & info [ "workers" ] ~docv:"N" ~doc)

let fail_at_arg =
  let doc = "Fail a link at this virtual time (epoch bump + replan storm). \
             Repeatable." in
  Arg.(value & opt_all float [] & info [ "fail-at" ] ~docv:"T" ~doc)

let repair_at_arg =
  let doc = "Repair the failed link at this virtual time.  Repeatable." in
  Arg.(value & opt_all float [] & info [ "repair-at" ] ~docv:"T" ~doc)

let fail_link_arg =
  let doc = "Link id the --fail-at/--repair-at flags act on (default: the \
             topology's first failure case, or a popular core link on \
             generated topologies)." in
  Arg.(value & opt (some int) None & info [ "fail-link" ] ~docv:"LINK" ~doc)

let scenario_arg =
  let doc = "Failure schedule applied during the run: \
             $(b,flap:links=N,period=S,duty=D,seed=K), \
             $(b,regional:groups=N,mtbf=S,mttr=S,seed=K), \
             $(b,adversarial:k=N,period=S,hold=S,level=L) or \
             $(b,events:fail@T=A-B,repair@T=#ID,...).  Generated over the \
             workload's arrival horizon and merged with any \
             --fail-at/--repair-at events." in
  Arg.(value
       & opt (some string) None
       & info [ "scenario" ] ~docv:"SPEC" ~doc)

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
  Arg.(value & opt (some float) None & info [ "metrics-every" ] ~docv:"S" ~doc)

let metrics_prom_arg =
  let doc = "Dump the end-of-run registry to $(docv) in Prometheus text \
             exposition format." in
  Arg.(value
       & opt (some string) None
       & info [ "metrics-prom" ] ~docv:"FILE" ~doc)

let jobs_arg =
  let doc = "Worker domains for batch plan computation.  Reports are \
             byte-identical at any value.  Defaults to $(b,KAR_JOBS) if \
             set, else the machine's recommended domain count." in
  Arg.(value & opt int 0 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let cmd =
  let doc = "Serve route-plan requests from an online KAR control plane" in
  let info = Cmd.info "kar_serve" ~doc in
  Cmd.v info
    Term.(
      const run $ net_arg $ requests_arg $ rate_arg $ skew_arg $ seed_arg
      $ levels_arg $ cache_arg $ batch_size_arg $ batch_delay_arg $ workers_arg
      $ fail_at_arg $ repair_at_arg $ fail_link_arg $ scenario_arg $ trace_arg
      $ metrics_arg $ metrics_every_arg $ metrics_prom_arg $ jobs_arg)

let () = exit (Cmd.eval cmd)

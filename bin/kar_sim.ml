(* kar_sim: packet-level simulation of a KAR network from the command line.

   Completes the operator workflow: author a topology (kar_route export /
   Topo.Serial), plan routes (kar_route plan), then watch TCP traffic ride
   through a failure:

     kar_sim --topo net.kar --src 1001 --dst 1003 \
             --fail 7:13 --fail-at 3 --fail-for 3 --duration 9 \
             --policy nip --protect-bits 64

   Every timed failure is a scenario event: --fail A:B --fail-at T
   --fail-for D is the explicit stream events:fail@T=A-B,repair@T+D=A-B,
   merged with any --scenario schedule and armed once through
   Kar_scenario.Driver.

   Flight records can be written as JSONL or as the compact binary format
   (--trace-format binary); `kar_sim convert` translates losslessly between
   the two. *)

open Cmdliner
module Graph = Topo.Graph

let link_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ a; b ] ->
      (try Ok (int_of_string a, int_of_string b)
       with Failure _ -> Error (`Msg ("bad link " ^ s)))
    | _ -> Error (`Msg "link must be <labelA>:<labelB>")
  in
  Arg.conv (parse, fun ppf (a, b) -> Format.fprintf ppf "%d:%d" a b)

type trace_format = Jsonl | Binary

let trace_format_conv = Arg.enum [ ("jsonl", Jsonl); ("binary", Binary) ]

let print_stats g net =
  let pool = Netsim.Net.pool net in
  Printf.printf
    "pool: %d hits, %d grows, %d in flight, %d releases\n"
    (Netsim.Packet.Pool.hits pool) (Netsim.Packet.Pool.grows pool)
    (Netsim.Net.pool_in_flight net) (Netsim.Packet.Pool.releases pool);
  List.iter
    (fun v ->
      let d = Netsim.Net.deflections_at net v
      and dr = Netsim.Net.drives_at net v in
      if d > 0 || dr > 0 then
        Printf.printf "switch SW%d: %d deflections, %d driven\n"
          (Graph.label g v) d dr)
    (Graph.core_nodes g);
  for id = 0 to Graph.n_links g - 1 do
    let drops = Netsim.Net.queue_drops_on net id in
    if drops > 0 then begin
      let l = Graph.link g id in
      Printf.printf "link %d (SW%d-SW%d): %d queue drops\n" id
        (Graph.label g l.Graph.ep0.Graph.node)
        (Graph.label g l.Graph.ep1.Graph.node)
        drops
    end
  done

(* --regions 0 keeps the single-engine simulator; any positive
   count goes through the partitioned (sharded) simulator, which produces
   the byte-identical trace.  A partition the topology cannot take (more
   regions than nodes, a cut across a zero-delay link) is an error. *)
let network g ~regions =
  if regions = 0 then
    Ok (Netsim.Net.create ~graph:g ~engine:(Netsim.Engine.create ()) (), None)
  else
    try
      let partition = Topo.Partition.make g ~regions in
      Ok (Netsim.Net.create_partitioned ~graph:g ~partition (), Some partition)
    with Invalid_argument m -> Error (Printf.sprintf "--regions %d: %s" regions m)

let run () topology src dst policy fail fail_at fail_for scenario duration
    protect_bits seed regions trace_file trace_format stats metrics
    metrics_prom check_invariants =
  let g = topology.Cli.graph in
  match
    Result.bind (Cli.endpoints g ~src ~dst) (fun ends ->
        Result.map (fun net -> (ends, net)) (network g ~regions))
  with
  | Error msg -> `Error (false, msg)
  | Ok ((src, dst), (net, partition)) ->
    (* --fail and --scenario compile to one normalized event stream; a
       bad link stops the run before it starts. *)
    let explicit =
      match fail with
      | None -> []
      | Some (a, b) ->
        let link = Kar_scenario.Spec.Between (a, b) in
        [
          (fail_at, Kar_scenario.Event.Fail, link);
          (fail_at +. fail_for, Kar_scenario.Event.Repair, link);
        ]
    in
    let events =
      match
        Kar_scenario.Gen.compile g ~horizon:duration ~pairs:[ (src, dst) ]
          ~explicit scenario
      with
      | Ok evs -> evs
      | Error e ->
        Printf.eprintf "scenario: %s\n" e;
        exit 1
    in
    (* plan: shortest route, protection optimized within the budget over
       the route's own links.  No path, or a path whose route ID no
       header can carry, stops the run here. *)
    let base, rev =
      try
        ( Kar.Controller.route g ~src ~dst ~protection:[],
          Kar.Controller.route g ~src:dst ~dst:src ~protection:[] )
      with Invalid_argument msg ->
        Printf.eprintf "kar_sim: %s\n" msg;
        exit 1
    in
    let failures_for_opt = Topo.Paths.path_links g base.Kar.Route.core_path in
    let plan =
      (Kar.Optimizer.optimize g ~plan:base ~policy ~failures:failures_for_opt
         ~src ~dst ~bits:protect_bits)
        .Kar.Optimizer.plan
    in
    Printf.printf "route %s (%d bits, %d residues)\n"
      (String.concat "->"
         (List.map (fun v -> string_of_int (Graph.label g v)) plan.Kar.Route.core_path))
      plan.Kar.Route.bit_length
      (List.length plan.Kar.Route.residues);
    Option.iter
      (fun p ->
        Printf.printf "sharded: %d regions, %d cut links, lookahead %g s\n"
          regions
          (List.length p.Topo.Partition.cut_links)
          p.Topo.Partition.lookahead)
      partition;
    (* Flight recorder: on for --trace, --stats and/or
       --check-invariants (the per-switch tallies --stats prints are
       only maintained while a recorder is attached).  The protected
       set is the moduli of both plans in the air (data and ACK
       direction) — the switches whose modulo forward of a deflected
       packet counts as a driven deflection. *)
    let trace_oc =
      match (trace_file, trace_format) with
      | Some file, Jsonl -> Some (open_out file)
      | _ -> None
    in
    let binary_writer =
      match (trace_file, trace_format) with
      | Some _, Binary -> Some (Trace.Binary.writer ())
      | _ -> None
    in
    let sink =
      match (trace_oc, binary_writer) with
      | Some oc, _ -> Some (Trace.Recorder.jsonl_sink oc)
      | None, Some w -> Some (Trace.Binary.sink w)
      | None, None -> None
    in
    let recorder =
      if sink = None && not (check_invariants || stats) then None
      else
        Some
          (Trace.Recorder.create ?sink ~capacity:(1 lsl 20)
             ~protected_switches:
               (List.map
                  (fun r -> r.Rns.modulus)
                  (plan.Kar.Route.residues @ rev.Kar.Route.residues))
             ())
    in
    Netsim.Net.set_recorder net recorder;
    Netsim.Karnet.install_switches net ~policy ~seed;
    let stack = Tcp.Stack.create ~net () in
    let sampler = Tcp.Sampler.create ~bin_s:(duration /. 24.0) () in
    let flow =
      Tcp.Flow.start ~net ~id:1 ~src ~dst ~fwd_route:plan.Kar.Route.route_id
        ~rev_route:rev.Kar.Route.route_id ~sampler ()
    in
    Tcp.Stack.register stack flow;
    (* The stream is armed as admin actions, which apply at
       sharded-region barriers, so solo and --regions R runs see
       byte-identical topology churn.  Arming registers the scenario/*
       metrics, so it happens once, and only when there are events to
       ask for. *)
    if fail <> None || scenario <> None then begin
      Kar_scenario.Driver.arm net events;
      Printf.printf "scenario: %d topology events over %g s\n"
        (List.length events) duration
    end;
    Netsim.Net.run_until net duration;
    (* The recorder may hold a buffered tie group at the cut-off;
       settle it before any sink output is consumed. *)
    Option.iter Trace.Recorder.flush recorder;
    Tcp.Flow.stop flow;
    let series = Tcp.Sampler.series_mbps sampler ~until:duration in
    Printf.printf "goodput: %s\n" (Util.Texttab.spark series);
    List.iteri
      (fun i v ->
        if i mod 4 = 0 then
          Printf.printf "  t=%5.2fs  %8.2f Mb/s\n"
            (float_of_int i *. duration /. 24.0) v)
      series;
    let st = Tcp.Flow.stats flow in
    let ns = Netsim.Net.stats net in
    Printf.printf
      "flow: %d segments, %d retransmissions (%d spurious), %d timeouts\n"
      st.Tcp.Flow.segments_sent st.Tcp.Flow.retransmissions
      st.Tcp.Flow.spurious_rexmits st.Tcp.Flow.timeouts;
    Printf.printf "network: %d deflections, %d re-encodes, %d drops\n"
      ns.Netsim.Net.deflections ns.Netsim.Net.reencodes
      (ns.Netsim.Net.dropped_link_down + ns.Netsim.Net.dropped_queue_full
     + ns.Netsim.Net.dropped_no_route + ns.Netsim.Net.dropped_ttl);
    if stats then print_stats g net;
    if metrics then begin
      print_string "\n-- metrics --\n";
      print_string (Kar_obs.Export.summary (Netsim.Net.registry net))
    end;
    if metrics_prom then
      print_string (Kar_obs.Export.prometheus (Netsim.Net.registry net));
    Option.iter close_out trace_oc;
    (match (binary_writer, trace_file) with
     | Some w, Some file -> Trace.Binary.to_file w file
     | _ -> ());
    (match (recorder, trace_file) with
     | Some r, Some file ->
       Printf.printf "trace: %d events written to %s\n"
         (Trace.Recorder.recorded r) file
     | _ -> ());
    (match recorder with
     | Some r when check_invariants ->
       (* TCP segments still in flight at the cut-off are legitimate, so
          no drain check; delivery is TCP's business, not the trace's. *)
       let violations =
         Trace.Invariant.check
           ~truncated:(Trace.Recorder.overwritten r > 0)
           (Trace.Recorder.contents r)
       in
       if Trace.Recorder.overwritten r > 0 then
         Printf.printf
           "invariants: checked last %d events only (%d overwritten)\n"
           (List.length (Trace.Recorder.contents r))
           (Trace.Recorder.overwritten r);
       (match violations with
        | [] ->
          Printf.printf "invariants: ok (%d events)\n"
            (Trace.Recorder.recorded r);
          `Ok ()
        | vs ->
          List.iter
            (fun v ->
              Printf.eprintf "invariant violation: %s\n"
                (Format.asprintf "%a" Trace.Invariant.pp_violation v))
            vs;
          `Error (false, Printf.sprintf "%d invariant violations" (List.length vs)))
     | _ -> `Ok ())

(* --- convert: lossless binary <-> JSONL trace translation --- *)

let read_whole_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let parse_jsonl s =
  let lines = String.split_on_char '\n' s in
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
      if String.trim line = "" then go (i + 1) acc rest
      else
        (match Trace.Event.of_jsonl line with
         | Ok e -> go (i + 1) (e :: acc) rest
         | Error msg -> Error (Printf.sprintf "line %d: %s" i msg))
  in
  go 1 [] lines

let convert input output to_format =
  let contents = read_whole_file input in
  let input_binary = Trace.Binary.is_binary contents in
  let events =
    if input_binary then Trace.Binary.decode_string contents
    else parse_jsonl contents
  in
  match events with
  | Error msg -> `Error (false, Printf.sprintf "%s: %s" input msg)
  | Ok events ->
    let target =
      match to_format with
      | Some f -> f
      | None -> if input_binary then Jsonl else Binary
    in
    let oc = open_out_bin output in
    (match target with
     | Jsonl ->
       List.iter
         (fun e ->
           output_string oc (Trace.Event.to_jsonl e);
           output_char oc '\n')
         events
     | Binary -> output_string oc (Trace.Binary.encode_events events));
    close_out oc;
    Printf.printf "%s: %d events -> %s (%s)\n" input (List.length events)
      output
      (match target with Jsonl -> "jsonl" | Binary -> "binary");
    `Ok ()

let sim_term =
  let fail =
    Arg.(value & opt (some link_conv) None & info [ "fail" ] ~docv:"A:B"
           ~doc:"Link to fail, by node labels.  Shorthand for the scenario \
                 events $(b,fail@T=A-B,repair@T+D=A-B) with T = \
                 $(b,--fail-at) and D = $(b,--fail-for), merged with any \
                 $(b,--scenario).  A pair that is not a link is an error.")
  in
  let fail_at =
    Arg.(value & opt Cli.nonneg_float 3.0 & info [ "fail-at" ] ~docv:"S"
           ~doc:"Failure time of $(b,--fail).")
  in
  let fail_for =
    Arg.(value & opt Cli.positive_float 3.0 & info [ "fail-for" ] ~docv:"S"
           ~doc:"Failure duration of $(b,--fail).")
  in
  let duration =
    Arg.(value & opt Cli.positive_float 9.0 & info [ "duration" ] ~docv:"S"
           ~doc:"Total simulated time.")
  in
  let protect_bits =
    Arg.(value & opt (Cli.int_from 0 ~max:Wire.Header.max_route_bits) 64
         & info [ "protect-bits" ] ~docv:"N"
             ~doc:"Header budget, in bits, for optimizer-placed protection \
                   (0 = none); at most the header's 992-bit route-ID width.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Deflection PRNG seed.")
  in
  let regions =
    Arg.(value & opt (Cli.int_from 0) 0 & info [ "regions" ] ~docv:"R"
           ~doc:"Partition the network into $(docv) regions and simulate \
                 them in parallel on up to $(b,-j) domains (conservative \
                 synchronisation; the trace and flow results are \
                 byte-identical to a serial run).  $(docv) is at most the \
                 node count, and no cut link may have zero delay.  0 (the \
                 default) keeps the single-engine simulator.")
  in
  let trace =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write the packet flight record to $(docv).")
  in
  let trace_format =
    Arg.(value & opt trace_format_conv Jsonl
         & info [ "trace-format" ] ~docv:"FMT"
             ~doc:"Flight record encoding: $(b,jsonl) (one event per line) \
                   or $(b,binary) (compact KARB records; convert with \
                   $(b,kar_sim convert)).")
  in
  let stats =
    Arg.(value & flag & info [ "stats" ]
           ~doc:"Print buffer-pool hit/grow/in-flight counters, per-switch \
                 deflection/driven tallies and per-link queue drops after \
                 the run.")
  in
  let metrics =
    Arg.(value & flag & info [ "metrics" ]
           ~doc:"Print the unified metrics registry (netsim/*, engine/* \
                 counters, gauges and probes) as a terminal summary after \
                 the run.")
  in
  let metrics_prom =
    Arg.(value & flag & info [ "metrics-prom" ]
           ~doc:"Dump the metrics registry in Prometheus text exposition \
                 format after the run.")
  in
  let check_invariants =
    Arg.(value & flag & info [ "check-invariants" ]
           ~doc:"Replay the flight record after the run and verify the \
                 simulation invariants (loop-freedom of driven deflections, \
                 conservation, TTL monotonicity, per-queue FIFO); exits \
                 non-zero on any violation.")
  in
  Term.(
    ret
      (const run $ Cli.jobs $ Cli.topology "topo" $ Cli.src $ Cli.dst
      $ Cli.policy $ fail $ fail_at $ fail_for $ Cli.scenario $ duration
      $ protect_bits $ seed $ regions $ trace $ trace_format $ stats $ metrics
      $ metrics_prom $ check_invariants))

let convert_cmd =
  let input =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"INPUT"
           ~doc:"Trace to convert (format auto-detected by the KARB magic).")
  in
  let output =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"OUTPUT"
           ~doc:"Destination file.")
  in
  let to_format =
    Arg.(value & opt (some trace_format_conv) None & info [ "to" ] ~docv:"FMT"
           ~doc:"Target encoding ($(b,jsonl) or $(b,binary)); default is \
                 the opposite of the input's.")
  in
  Cmd.v
    (Cmd.info "convert"
       ~doc:"Convert a flight record between JSONL and binary losslessly")
    Term.(ret (const convert $ input $ output $ to_format))

let cmd =
  Cmd.group
    ~default:sim_term
    (Cmd.info "kar_sim" ~doc:"Simulate TCP over a KAR network with a link failure")
    [ convert_cmd ]

let () = exit (Cmd.eval cmd)

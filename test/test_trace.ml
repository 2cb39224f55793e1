(* Tests for the packet flight recorder (lib/trace): the ring buffer, the
   JSONL trace format, the invariant checker on hand-crafted violating
   traces, golden-fixture replay, and the differential property that
   Kar.Walk and Netsim.Karnet take identical switch-hop sequences under the
   same seed, plan, policy and failure. *)

module Graph = Topo.Graph
module Nets = Topo.Nets
module Event = Trace.Event
module Recorder = Trace.Recorder
module Invariant = Trace.Invariant

let qtest ?(count = 200) ?print name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ?print ~name gen f)

(* --- Recorder: ring buffer semantics --- *)

let rec_event r i =
  ignore
    (Recorder.record r ~vtime:(float_of_int i) ~uid:i ~switch:7 ~in_port:0
       ~out_port:1 ~ttl:(64 - i) Event.Forward)

let test_ring_overwrite () =
  let r = Recorder.create ~capacity:4 () in
  for i = 0 to 5 do rec_event r i done;
  Alcotest.(check int) "recorded" 6 (Recorder.recorded r);
  Alcotest.(check int) "overwritten" 2 (Recorder.overwritten r);
  let seqs = List.map (fun e -> e.Event.seq) (Recorder.contents r) in
  Alcotest.(check (list int)) "oldest first, oldest two gone" [ 2; 3; 4; 5 ] seqs;
  Recorder.clear r;
  Alcotest.(check int) "cleared" 0 (Recorder.recorded r);
  Alcotest.(check (list int)) "empty" []
    (List.map (fun e -> e.Event.seq) (Recorder.contents r))

let test_sink_sees_overwritten () =
  let seen = ref [] in
  let r = Recorder.create ~capacity:2 ~sink:(fun e -> seen := e :: !seen) () in
  for i = 0 to 4 do rec_event r i done;
  Alcotest.(check (list int)) "sink saw every event" [ 0; 1; 2; 3; 4 ]
    (List.rev_map (fun e -> e.Event.seq) !seen)

let test_protected_set () =
  let r = Recorder.create ~protected_switches:[ 7; 13 ] () in
  Alcotest.(check bool) "7 protected" true (Recorder.is_protected r 7);
  Alcotest.(check bool) "11 not" false (Recorder.is_protected r 11);
  Recorder.set_protected r [ 11 ];
  Alcotest.(check bool) "replaced" true
    (Recorder.is_protected r 11 && not (Recorder.is_protected r 7))

(* --- JSONL format --- *)

let actions =
  [ Event.Inject; Event.Forward; Event.Deflect "hp"; Event.Deflect "avp";
    Event.Deflect "nip"; Event.Drive; Event.Deliver; Event.Reencode;
    Event.Drop "link_down"; Event.Drop "queue_full"; Event.Drop "no_route";
    Event.Drop "ttl"; Event.Drop "stranded" ]

let test_jsonl_golden_line () =
  let e =
    { Event.seq = 3; vtime = 0.0025; uid = 1; switch = 13; in_port = 0;
      out_port = 2; ttl = 61; action = Event.Deflect "nip" }
  in
  Alcotest.(check string) "stable on-disk format"
    {|{"seq":3,"t":0.0025,"uid":1,"sw":13,"in":0,"out":2,"ttl":61,"act":"deflect:nip"}|}
    (Event.to_jsonl e)

let prop_jsonl_roundtrip =
  qtest ~count:500 "to_jsonl |> of_jsonl is the identity"
    QCheck2.Gen.(
      tup6 (0 -- 1_000_000) (0 -- 1_000_000) (pair (-1 -- 997) (-1 -- 31))
        (-1 -- 31) (-300 -- 300)
        (0 -- (List.length actions - 1)))
    (fun (seq, vt_q, (switch, in_port), out_port, ttl, ai) ->
      (* quarters are exact in binary and need < 9 significant digits, so
         the %.9g rendering is lossless *)
      let e =
        { Event.seq; vtime = float_of_int vt_q *. 0.25; uid = seq mod 97;
          switch; in_port; out_port; ttl; action = List.nth actions ai }
      in
      Event.of_jsonl (Event.to_jsonl e) = Ok e)

let test_jsonl_rejects_garbage () =
  List.iter
    (fun line ->
      match Event.of_jsonl line with
      | Ok _ -> Alcotest.failf "parsed %S" line
      | Error _ -> ())
    [ ""; "{}"; "not json";
      {|{"seq":1,"t":0,"uid":0,"sw":7,"in":0,"out":1,"ttl":9}|} (* no act *);
      {|{"seq":1,"t":0,"uid":0,"sw":7,"in":0,"out":1,"ttl":9,"act":"warp"}|};
      {|{"seq":x,"t":0,"uid":0,"sw":7,"in":0,"out":1,"ttl":9,"act":"fwd"}|} ]

(* --- Invariant checker on hand-crafted traces --- *)

let ev ?(uid = 0) ?(switch = 7) ?(in_port = 0) ?(out_port = -1) ~seq ~ttl
    action =
  { Event.seq; vtime = float_of_int seq; uid; switch; in_port; out_port; ttl;
    action }

let names vs =
  List.sort_uniq compare (List.map (fun v -> v.Invariant.invariant) vs)

let clean_trace =
  [ ev ~seq:0 ~switch:100 ~in_port:(-1) ~ttl:8 Event.Inject;
    ev ~seq:1 ~switch:7 ~out_port:1 ~ttl:7 Event.Forward;
    ev ~seq:2 ~switch:11 ~out_port:2 ~ttl:6 Event.Forward;
    ev ~seq:3 ~switch:103 ~in_port:1 ~ttl:6 Event.Deliver ]

let test_clean_trace () =
  Alcotest.(check (list string)) "no violations" []
    (names (Invariant.check ~drained:true ~expect_delivery:true clean_trace))

let test_driven_loop_detected () =
  let trace =
    [ ev ~seq:0 ~switch:100 ~in_port:(-1) ~ttl:8 Event.Inject;
      ev ~seq:1 ~switch:7 ~out_port:1 ~ttl:7 Event.Drive;
      ev ~seq:2 ~switch:11 ~out_port:2 ~ttl:6 Event.Forward;
      ev ~seq:3 ~switch:7 ~out_port:1 ~ttl:5 Event.Forward ]
  in
  Alcotest.(check (list string)) "revisit while driven" [ "driven-loop" ]
    (names (Invariant.check trace))

let test_deflect_resets_driven_walk () =
  let trace =
    [ ev ~seq:0 ~switch:100 ~in_port:(-1) ~ttl:8 Event.Inject;
      ev ~seq:1 ~switch:7 ~out_port:1 ~ttl:7 Event.Drive;
      ev ~seq:2 ~switch:11 ~out_port:2 ~ttl:6 (Event.Deflect "nip");
      ev ~seq:3 ~switch:7 ~out_port:1 ~ttl:5 Event.Forward ]
  in
  Alcotest.(check (list string)) "fresh deflection restarts the walk" []
    (names (Invariant.check trace))

let test_conservation_detected () =
  let double_inject =
    ev ~seq:4 ~switch:100 ~in_port:(-1) ~ttl:5 Event.Inject :: clean_trace
  in
  Alcotest.(check (list string)) "two injects" [ "conservation" ]
    (names (Invariant.check double_inject));
  let after_terminal =
    clean_trace @ [ ev ~seq:9 ~switch:11 ~out_port:0 ~ttl:5 Event.Forward ]
  in
  Alcotest.(check (list string)) "event after terminal" [ "conservation" ]
    (names (Invariant.check after_terminal));
  let in_flight =
    [ ev ~seq:0 ~switch:100 ~in_port:(-1) ~ttl:8 Event.Inject;
      ev ~seq:1 ~switch:7 ~out_port:1 ~ttl:7 Event.Forward ]
  in
  Alcotest.(check (list string)) "in flight at drain" [ "conservation" ]
    (names (Invariant.check ~drained:true in_flight));
  Alcotest.(check (list string)) "in flight without drain is fine" []
    (names (Invariant.check in_flight))

let test_ttl_violations_detected () =
  let stuck =
    [ ev ~seq:0 ~switch:100 ~in_port:(-1) ~ttl:8 Event.Inject;
      ev ~seq:1 ~switch:7 ~out_port:1 ~ttl:8 Event.Forward ]
  in
  Alcotest.(check (list string)) "not strictly decreasing" [ "ttl" ]
    (names (Invariant.check stuck));
  (* the header's TTL is one byte: 0..255 are representable *)
  List.iter
    (fun (ttl, expected) ->
      Alcotest.(check (list string))
        (Printf.sprintf "ttl %d against the Wire.Header range" ttl)
        expected
        (names
           (Invariant.check
              [ ev ~seq:0 ~switch:100 ~in_port:(-1) ~ttl Event.Inject ])))
    [ (-1, [ "ttl" ]); (0, []); (255, []); (256, [ "ttl" ]); (300, [ "ttl" ]) ]

let test_fifo_violation_detected () =
  (* Two packets through queue (switch 7, port 1): uid 0 sent first but
     arrives last — uid 1 overtook it inside one FIFO channel. *)
  let trace =
    [ ev ~uid:0 ~seq:0 ~switch:100 ~in_port:(-1) ~ttl:8 Event.Inject;
      ev ~uid:1 ~seq:1 ~switch:100 ~in_port:(-1) ~ttl:8 Event.Inject;
      ev ~uid:0 ~seq:2 ~switch:7 ~out_port:1 ~ttl:7 Event.Forward;
      ev ~uid:1 ~seq:3 ~switch:7 ~out_port:1 ~ttl:7 Event.Forward;
      ev ~uid:1 ~seq:4 ~switch:11 ~in_port:0 ~out_port:2 ~ttl:6 Event.Forward;
      ev ~uid:0 ~seq:5 ~switch:11 ~in_port:0 ~out_port:2 ~ttl:6 Event.Forward ]
  in
  Alcotest.(check (list string)) "overtaking detected" [ "fifo" ]
    (names (Invariant.check trace))

let test_delivery_expectation () =
  let dropped =
    [ ev ~seq:0 ~switch:100 ~in_port:(-1) ~ttl:8 Event.Inject;
      ev ~seq:1 ~switch:7 ~ttl:7 (Event.Drop "no_route") ]
  in
  Alcotest.(check (list string)) "drop breaks the delivery claim"
    [ "delivery" ]
    (names (Invariant.check ~expect_delivery:true dropped));
  Alcotest.(check (list string)) "fine when delivery not promised" []
    (names (Invariant.check dropped))

let test_truncated_suffix () =
  (* A stream that lost its Inject to the ring: only valid as a declared
     suffix. *)
  let suffix =
    [ ev ~seq:10 ~switch:7 ~out_port:1 ~ttl:7 Event.Forward;
      ev ~seq:11 ~switch:103 ~in_port:1 ~ttl:6 Event.Deliver ]
  in
  Alcotest.(check (list string)) "suffix accepted when truncated" []
    (names
       (Invariant.check ~truncated:true ~drained:true ~expect_delivery:true
          suffix));
  Alcotest.(check (list string)) "same trace rejected when not truncated"
    [ "conservation" ]
    (names (Invariant.check suffix))

(* --- Traced netsim runs --- *)

let traced_run ?(cache = false) (sc : Nets.scenario) ~link ~level ~policy
    ~packets ~seed =
  let g = sc.Nets.graph in
  let engine = Netsim.Engine.create () in
  let net = Netsim.Net.create ~graph:g ~engine () in
  let plan = Kar.Controller.scenario_plan sc level in
  let recorder =
    Recorder.create
      ~protected_switches:
        (List.map (fun r -> r.Rns.modulus) plan.Kar.Route.residues)
      ()
  in
  Netsim.Net.set_recorder net (Some recorder);
  Netsim.Karnet.install_switches
    ?plan:(if cache then Some plan else None)
    net ~policy ~seed;
  let cache = Kar.Controller.create_cache g in
  List.iter
    (fun v ->
      Netsim.Karnet.install_edge net v
        ~reencode:(fun (p : Netsim.Packet.t) ->
          Kar.Controller.reencode cache ~at:v ~dst:(Netsim.Packet.dst p))
        ~receive:(fun _ _ -> ())
        ())
    (Graph.edge_nodes g);
  Netsim.Net.fail_link net link;
  for i = 0 to packets - 1 do
    ignore
      (Netsim.Engine.schedule_at engine
         (float_of_int i *. 1e-3)
         (fun () ->
           let packet =
             Netsim.Packet.make ~uid:(Netsim.Net.fresh_uid net)
               ~src:sc.Nets.ingress ~dst:sc.Nets.egress ~size_bytes:512
               ~route_id:plan.Kar.Route.route_id
               ~born:(Netsim.Engine.now engine) Netsim.Packet.Raw
           in
           Netsim.Net.inject net ~at:sc.Nets.ingress packet))
  done;
  Netsim.Engine.run engine;
  (net, recorder)

let test_karnet_traced_run () =
  let sc = Nets.fig1_six in
  let fc = List.hd sc.Nets.failures in
  let net, recorder =
    traced_run sc ~link:fc.Nets.link ~level:Kar.Controller.Full
      ~policy:Kar.Policy.Not_input_port ~packets:2 ~seed:7
  in
  let events = Recorder.contents recorder in
  Alcotest.(check bool) "events recorded" true (List.length events > 0);
  Alcotest.(check (list string)) "invariants hold" []
    (names (Invariant.check ~drained:true ~expect_delivery:true events));
  Alcotest.(check int) "both packets delivered" 2
    (Netsim.Net.stats net).Netsim.Net.delivered;
  (* the failure forces at least one deflection, visible per-switch *)
  let g = sc.Nets.graph in
  let sum f = List.fold_left (fun a v -> a + f net v) 0 (Graph.core_nodes g) in
  Alcotest.(check bool) "per-switch deflection tallies" true
    (sum Netsim.Net.deflections_at > 0);
  Alcotest.(check bool) "per-switch drive tallies" true
    (sum Netsim.Net.drives_at > 0)

(* The acceptance sweep: every single core-link failure on net15 and rnp28,
   crossed with all protection levels and deflection policies.  Zero
   invariant violations anywhere; full delivery wherever the paper claims
   it (full protection + AVP/NIP). *)
let test_invariant_sweep () =
  let cases = Experiments.Invariants.run ~packets:4 ~seed:42 () in
  Alcotest.(check bool) "sweep is non-trivial" true (List.length cases > 500);
  List.iter
    (fun (c : Experiments.Invariants.case) ->
      (match c.Experiments.Invariants.violations with
       | [] -> ()
       | v :: _ ->
         Alcotest.failf "%s %s %s %s: %s" c.Experiments.Invariants.topology
           c.Experiments.Invariants.failure
           (Kar.Controller.level_to_string c.Experiments.Invariants.level)
           (Kar.Policy.to_string c.Experiments.Invariants.policy)
           (Format.asprintf "%a" Invariant.pp_violation v));
      if
        Experiments.Invariants.expect_delivery c.Experiments.Invariants.level
          c.Experiments.Invariants.policy
      then
        Alcotest.(check int)
          (Printf.sprintf "full delivery %s %s"
             c.Experiments.Invariants.topology c.Experiments.Invariants.failure)
          c.Experiments.Invariants.packets c.Experiments.Invariants.delivered)
    cases

(* The residue cache must be a pure acceleration: with the cache on
   ([?plan] threaded into the switches) and off, every single-core-link
   failure on net15 and rnp28 must produce the identical flight-recorder
   trace, byte for byte in JSONL form. *)
let test_residue_cache_differential () =
  List.iter
    (fun (name, sc) ->
      List.iter
        (fun link ->
          let jsonl cache =
            let _, recorder =
              traced_run ~cache sc ~link ~level:Kar.Controller.Full
                ~policy:Kar.Policy.Not_input_port ~packets:3 ~seed:11
            in
            List.map Event.to_jsonl (Recorder.contents recorder)
          in
          Alcotest.(check (list string))
            (Printf.sprintf "%s link %d: cache on = cache off" name link)
            (jsonl false) (jsonl true))
        (Graph.core_links sc.Nets.graph))
    [ ("net15", Nets.net15); ("rnp28", Nets.rnp28) ]

(* --- Golden fixtures --- *)

let fixtures =
  [ ("fixtures/fig1_nip_partial.jsonl", `Fig1);
    ("fixtures/net15_nip_full.jsonl", `Net15) ]

(* dune runtest stages the fixtures next to the executable; a bare
   `dune exec test/test_trace.exe` runs from the repo root *)
let fixture_path f = if Sys.file_exists f then f else Filename.concat "test" f

let read_lines file =
  let ic = open_in file in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file -> close_in ic; List.rev acc
  in
  go []

let test_fixture_replay () =
  List.iter
    (fun (file, which) ->
      let lines = read_lines (fixture_path file) in
      (* every fixture line parses, and the parsed events satisfy the
         order-local invariants *)
      let events =
        List.map
          (fun line ->
            match Event.of_jsonl line with
            | Ok e -> e
            | Error msg -> Alcotest.failf "%s: %s (%s)" file line msg)
          lines
      in
      Alcotest.(check (list string))
        (file ^ " invariants") []
        (names (Invariant.check ~drained:true events));
      (* regenerating the canonical scenario reproduces the fixture byte
         for byte — the simulator's decision sequence is pinned *)
      let regenerated =
        List.map Event.to_jsonl (Experiments.Invariants.canonical_trace which)
      in
      Alcotest.(check (list string)) (file ^ " byte-exact") lines regenerated)
    fixtures

(* --- Binary encoding --- *)

(* Exact roundtrip for arbitrary events — unlike JSONL's %.9g rendering,
   the binary format stores the timestamp's IEEE-754 bits, so no precision
   restriction is needed on the generator. *)
let prop_binary_roundtrip =
  qtest ~count:500 "encode_events |> decode_string is the identity"
    QCheck2.Gen.(
      pair
        (tup6 (0 -- 1_000_000) float (pair (-1 -- 997) (-1 -- 31)) (-1 -- 31)
           (-300 -- 300)
           (0 -- (List.length actions - 1)))
        (0 -- 3))
    (fun ((seq, vtime, (switch, in_port), out_port, ttl, ai), extra) ->
      let mk i =
        { Event.seq = seq + i; vtime; uid = (seq + i) mod 97; switch;
          in_port; out_port; ttl; action = List.nth actions ai }
      in
      let events = List.init (1 + extra) mk in
      Trace.Binary.decode_string (Trace.Binary.encode_events events)
      = Ok events)

let test_binary_rejects_garbage () =
  let one = Trace.Binary.encode_events [ ev ~seq:0 ~ttl:8 Event.Inject ] in
  List.iter
    (fun (what, s) ->
      match Trace.Binary.decode_string s with
      | Ok _ -> Alcotest.failf "%s decoded" what
      | Error _ -> ())
    [ ("empty", ""); ("bad magic", "KARBxxxx" ^ "rest");
      ("jsonl input", {|{"seq":0,...}|});
      ("truncated record", String.sub one 0 (String.length one - 3));
      ("record shorter than fixed part", Trace.Binary.magic ^ "\x05aaaa");
      ("bad action tag",
       (let b = Bytes.of_string one in
        Bytes.set b 9 '\xee';
        (* tag byte of the first record *)
        Bytes.to_string b)) ]

let test_binary_writer_reset () =
  let w = Trace.Binary.writer ~capacity:16 () in
  Alcotest.(check int) "fresh writer holds only the magic" 8
    (Trace.Binary.length w);
  (* grows across the initial capacity, then resets back to just-magic *)
  for i = 0 to 99 do
    Trace.Binary.append w (ev ~seq:i ~ttl:8 Event.Forward)
  done;
  Alcotest.(check int) "100 records" (8 + (100 * 37)) (Trace.Binary.length w);
  (match Trace.Binary.decode_string (Trace.Binary.contents w) with
   | Ok events -> Alcotest.(check int) "decodes all" 100 (List.length events)
   | Error m -> Alcotest.fail m);
  Trace.Binary.reset w;
  Alcotest.(check int) "reset keeps only the magic" 8 (Trace.Binary.length w);
  Alcotest.(check bool) "contents carry the magic" true
    (Trace.Binary.is_binary (Trace.Binary.contents w))

(* The compatibility contract of the binary sink: recording the canonical
   scenarios through it and rendering the decoded events as JSONL is byte
   for byte the committed golden fixture — the two sinks are observationally
   identical. *)
let test_binary_golden_compat () =
  List.iter
    (fun (file, which) ->
      let events = Experiments.Invariants.canonical_trace which in
      let w = Trace.Binary.writer () in
      List.iter (Trace.Binary.sink w) events;
      match Trace.Binary.decode_string (Trace.Binary.contents w) with
      | Error m -> Alcotest.failf "%s: binary decode: %s" file m
      | Ok decoded ->
        let rendered = List.map Event.to_jsonl decoded in
        Alcotest.(check (list string))
          (file ^ " via binary sink, byte-exact")
          (read_lines (fixture_path file))
          rendered)
    fixtures

(* --- Never-raise fuzzing ---

   Both decoders read files and lines from outside the program: on any
   input they return [Ok] or [Error], never raise.  Valid encodings are
   mutated byte by byte (replace, insert, delete, truncate) so the
   decoders get past their first check. *)

let never_raises decode input =
  match decode input with Ok _ | Error _ -> true

let gen_event =
  QCheck2.Gen.(
    map
      (fun ((seq, vtime, switch, in_port), (out_port, ttl, ai)) ->
        { Event.seq; vtime; uid = seq mod 97; switch; in_port; out_port; ttl;
          action = List.nth actions ai })
      (pair
         (quad (0 -- 1_000_000) float (-1 -- 997) (-1 -- 31))
         (triple (-1 -- 31) (-300 -- 300) (0 -- (List.length actions - 1)))))

(* [s] after one to four random edits at random positions *)
let mutated ~gen_char s =
  let open QCheck2.Gen in
  let edit s =
    map3
      (fun kind pos c ->
        let n = String.length s in
        let pos = if n = 0 then 0 else pos mod n in
        match kind with
        | 0 when n > 0 -> String.mapi (fun i x -> if i = pos then c else x) s
        | 1 -> String.sub s 0 pos ^ String.make 1 c ^ String.sub s pos (n - pos)
        | 2 when n > 0 ->
          String.sub s 0 pos ^ String.sub s (pos + 1) (n - pos - 1)
        | _ -> String.sub s 0 pos)
      (0 -- 3) nat gen_char
  in
  let rec edits k s = if k = 0 then pure s else edit s >>= edits (k - 1) in
  1 -- 4 >>= fun k -> edits k s

let prop_binary_random_bytes =
  qtest ~count:1000 ~print:(Printf.sprintf "%S")
    "Binary.decode_string never raises on random bytes"
    QCheck2.Gen.(
      oneof
        [ string_size ~gen:char (0 -- 200);
          map (( ^ ) Trace.Binary.magic) (string_size ~gen:char (0 -- 200)) ])
    (never_raises Trace.Binary.decode_string)

let prop_binary_mutated =
  qtest ~count:1000 ~print:(Printf.sprintf "%S")
    "Binary.decode_string never raises on mutated streams"
    QCheck2.Gen.(
      list_size (1 -- 4) gen_event >>= fun events ->
      mutated ~gen_char:char (Trace.Binary.encode_events events))
    (never_raises Trace.Binary.decode_string)

let prop_jsonl_mutated =
  qtest ~count:1000 ~print:(Printf.sprintf "%S")
    "Event.of_jsonl never raises on mutated lines"
    QCheck2.Gen.(
      gen_event >>= fun e ->
      mutated
        ~gen_char:(oneof [ printable; oneofl [ '"'; ','; ':'; '{'; '}' ] ])
        (Event.to_jsonl e))
    (never_raises Event.of_jsonl)

(* --- Differential Walk <-> Netsim property --- *)

(* The switch-hop sequence of the (single) traced packet: every forwarding
   decision plus the delivery, with ports and remaining ttl.  Terminal
   drops are excluded — the two planes name stranding differently (the
   walker stops where the simulator re-encodes or drops). *)
let fingerprint events =
  List.filter_map
    (fun (e : Event.t) ->
      if Event.is_decision e || e.Event.action = Event.Deliver then
        Some
          ( e.Event.switch, e.Event.in_port, e.Event.out_port, e.Event.ttl,
            Event.action_to_string e.Event.action )
      else None)
    events

let netsim_leg (sc : Nets.scenario) ~plan ~policy ~link ~src ~dst ~seed ~ttl =
  let g = sc.Nets.graph in
  let engine = Netsim.Engine.create () in
  let net = Netsim.Net.create ~graph:g ~engine ~ttl () in
  let recorder =
    Recorder.create
      ~protected_switches:
        (List.map (fun r -> r.Rns.modulus) plan.Kar.Route.residues)
      ()
  in
  Netsim.Net.set_recorder net (Some recorder);
  Netsim.Karnet.install_switches net ~policy ~seed;
  (* no re-encoding: a stranded packet must stop exactly where the walker
     strands *)
  List.iter
    (fun v ->
      Netsim.Karnet.install_edge net v
        ~reencode:(fun _ -> None)
        ~receive:(fun _ _ -> ())
        ())
    (Graph.edge_nodes g);
  Netsim.Net.fail_link net link;
  let packet =
    Netsim.Packet.make ~uid:0 ~src ~dst ~size_bytes:256
      ~route_id:plan.Kar.Route.route_id ~born:0.0 Netsim.Packet.Raw
  in
  Netsim.Net.inject net ~at:src packet;
  Netsim.Engine.run engine;
  Recorder.contents recorder

let walk_leg (sc : Nets.scenario) ~plan ~policy ~link ~src ~dst ~seed ~ttl =
  let g = sc.Nets.graph in
  let recorder =
    Recorder.create
      ~protected_switches:
        (List.map (fun r -> r.Rns.modulus) plan.Kar.Route.residues)
      ()
  in
  let (_ : Kar.Walk.outcome) =
    Kar.Walk.walk g ~plan ~policy ~failed:[ link ] ~src ~dst ~ttl ~recorder
      ~uid:0
      ~rng_for:(Kar.Walk.switch_rngs g ~seed)
      (Util.Prng.of_int 0)
  in
  Recorder.contents recorder

let scenarios = [ Nets.fig1_six; Nets.net15; Nets.rnp28 ]

let prop_walk_netsim_identical =
  qtest ~count:150 "walk and netsim take identical switch-hop sequences"
    QCheck2.Gen.(
      tup6 (0 -- 2) (0 -- 10_000) (0 -- 3) (0 -- 2) (1 -- 10_000) (0 -- 10_000))
    (fun (sci, linkpick, pi, li, seed, pairpick) ->
      let sc = List.nth scenarios sci in
      let g = sc.Nets.graph in
      let links = Graph.core_links g in
      let link = List.nth links (linkpick mod List.length links) in
      let policy = List.nth Kar.Policy.all pi in
      let level = List.nth Kar.Controller.all_levels li in
      (* random src/dst over the edge hosts; the scenario pair uses the
         scenario plan (exercising protection + driven deflections), other
         pairs a bare shortest-path plan *)
      let edges = Array.of_list (Graph.edge_nodes g) in
      let n = Array.length edges in
      let src = edges.(pairpick mod n)
      and dst = edges.(pairpick / n mod n) in
      if src = dst then true
      else
        let plan =
          if src = sc.Nets.ingress && dst = sc.Nets.egress then
            Kar.Controller.scenario_plan sc level
          else Kar.Controller.route g ~src ~dst ~protection:[]
        in
        let ttl = 64 in
        let ns = netsim_leg sc ~plan ~policy ~link ~src ~dst ~seed ~ttl in
        let wk = walk_leg sc ~plan ~policy ~link ~src ~dst ~seed ~ttl in
        Invariant.check ns = [] && Invariant.check wk = []
        && fingerprint ns = fingerprint wk)

let () =
  Alcotest.run "trace"
    [
      ( "recorder",
        [
          Alcotest.test_case "ring overwrite" `Quick test_ring_overwrite;
          Alcotest.test_case "sink sees everything" `Quick
            test_sink_sees_overwritten;
          Alcotest.test_case "protected set" `Quick test_protected_set;
        ] );
      ( "jsonl",
        [
          Alcotest.test_case "golden line" `Quick test_jsonl_golden_line;
          prop_jsonl_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_jsonl_rejects_garbage;
          prop_jsonl_mutated;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "clean trace" `Quick test_clean_trace;
          Alcotest.test_case "driven loop" `Quick test_driven_loop_detected;
          Alcotest.test_case "deflect resets driven walk" `Quick
            test_deflect_resets_driven_walk;
          Alcotest.test_case "conservation" `Quick test_conservation_detected;
          Alcotest.test_case "ttl" `Quick test_ttl_violations_detected;
          Alcotest.test_case "fifo" `Quick test_fifo_violation_detected;
          Alcotest.test_case "delivery expectation" `Quick
            test_delivery_expectation;
          Alcotest.test_case "truncated suffix" `Quick test_truncated_suffix;
        ] );
      ( "netsim",
        [
          Alcotest.test_case "traced karnet run" `Quick test_karnet_traced_run;
          Alcotest.test_case "sweep: all failures, all policies" `Quick
            test_invariant_sweep;
          Alcotest.test_case "residue cache on/off: identical traces" `Quick
            test_residue_cache_differential;
        ] );
      ( "fixtures",
        [ Alcotest.test_case "replay and diff" `Quick test_fixture_replay ] );
      ( "binary",
        [
          prop_binary_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_binary_rejects_garbage;
          prop_binary_random_bytes;
          prop_binary_mutated;
          Alcotest.test_case "writer grows and resets" `Quick
            test_binary_writer_reset;
          Alcotest.test_case "golden fixtures via binary sink" `Quick
            test_binary_golden_compat;
        ] );
      ("differential", [ prop_walk_netsim_identical ]);
    ]

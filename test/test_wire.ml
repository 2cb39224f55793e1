(* Tests for the wire codec (the KAR packet header) and the topology file
   format — both must round-trip exactly, and both must reject corruption
   rather than mis-forward. *)

module Z = Bignum.Z
module H = Wire.Header

let qtest ?(count = 500) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

(* --- header: unit --- *)

let test_header_roundtrip_known () =
  List.iter
    (fun (rid, ttl) ->
      let h = H.make ~ttl (Z.of_string rid) in
      match H.encode h with
      | Error e -> Alcotest.failf "encode: %a" H.pp_error e
      | Ok bytes ->
        (match H.decode bytes with
         | Error e -> Alcotest.failf "decode: %a" H.pp_error e
         | Ok (h', consumed) ->
           Alcotest.(check int) "consumed all" (String.length bytes) consumed;
           Alcotest.(check int) "ttl" ttl h'.H.ttl;
           Alcotest.(check string) "route id" rid (Z.to_string h'.H.route_id)))
    [ ("0", 0); ("44", 64); ("660", 1); ("4409424109091", 255);
      ("340282366920938463463374607431768211455", 17) ]

let test_header_sizes () =
  let size rid =
    match H.encoded_size (H.make ~ttl:64 (Z.of_string rid)) with
    | Ok n -> n
    | Error e -> Alcotest.failf "%a" H.pp_error e
  in
  Alcotest.(check int) "small id: 1 word" 8 (size "44");
  Alcotest.(check int) "43-bit id: 2 words" 12 (size "4409424109091");
  Alcotest.(check int) "zero" 8 (size "0")

let test_header_rejects_oversize () =
  let huge = Z.pow Z.two 1000 in
  match H.encode (H.make ~ttl:1 huge) with
  | Error (H.Route_id_too_large _) -> ()
  | Error e -> Alcotest.failf "wrong error %a" H.pp_error e
  | Ok _ -> Alcotest.fail "expected rejection"

let test_header_rejects_negative () =
  match H.encode (H.make ~ttl:1 (Z.of_int (-5))) with
  | Error H.Negative_route_id -> ()
  | Error e -> Alcotest.failf "wrong error %a" H.pp_error e
  | Ok _ -> Alcotest.fail "expected rejection"

let test_header_rejects_truncation () =
  let bytes = Result.get_ok (H.encode (H.make ~ttl:9 (Z.of_int 660))) in
  match H.decode (String.sub bytes 0 (String.length bytes - 1)) with
  | Error (H.Truncated _) -> ()
  | Error e -> Alcotest.failf "wrong error %a" H.pp_error e
  | Ok _ -> Alcotest.fail "expected truncation error"

let test_header_detects_corruption () =
  let bytes = Result.get_ok (H.encode (H.make ~ttl:9 (Z.of_int 660))) in
  (* flip one bit of the route-ID area: checksum must catch it *)
  let corrupted = Bytes.of_string bytes in
  Bytes.set corrupted 6 (Char.chr (Char.code (Bytes.get corrupted 6) lxor 0x10));
  match H.decode (Bytes.to_string corrupted) with
  | Error H.Bad_checksum -> ()
  | Error e -> Alcotest.failf "wrong error %a" H.pp_error e
  | Ok _ -> Alcotest.fail "corruption slipped through"

let test_header_bad_version () =
  let bytes = Result.get_ok (H.encode (H.make ~ttl:9 (Z.of_int 44))) in
  let tweaked = Bytes.of_string bytes in
  Bytes.set tweaked 0 (Char.chr ((3 lsl 5) lor (Char.code (Bytes.get tweaked 0) land 0x1F)));
  match H.decode (Bytes.to_string tweaked) with
  | Error (H.Bad_version 3) -> ()
  | Error e -> Alcotest.failf "wrong error %a" H.pp_error e
  | Ok _ -> Alcotest.fail "expected version rejection"

let test_header_ttl_boundaries () =
  (* both ends of the ttl field must round-trip exactly *)
  List.iter
    (fun ttl ->
      match H.encode (H.make ~ttl (Z.of_int 660)) with
      | Error e -> Alcotest.failf "encode ttl=%d: %a" ttl H.pp_error e
      | Ok bytes ->
        (match H.decode bytes with
         | Ok (h, _) -> Alcotest.(check int) (Printf.sprintf "ttl %d" ttl) ttl h.H.ttl
         | Error e -> Alcotest.failf "decode ttl=%d: %a" ttl H.pp_error e))
    [ 0; 1; 254; 255 ]

let test_header_bad_ttl () =
  List.iter
    (fun ttl ->
      match H.encode (H.make ~ttl (Z.of_int 44)) with
      | Error (H.Bad_ttl reported) ->
        Alcotest.(check int) "reported ttl" ttl reported
      | Error e -> Alcotest.failf "ttl=%d wrong error %a" ttl H.pp_error e
      | Ok _ -> Alcotest.failf "ttl=%d accepted" ttl)
    [ -1; 256; 1000; -256 ]

let test_header_ttl_corruption_detected () =
  (* the ttl byte is under the checksum: a corrupted ttl must not decode *)
  let bytes = Result.get_ok (H.encode (H.make ~ttl:128 (Z.of_int 660))) in
  List.iter
    (fun bit ->
      let corrupted = Bytes.of_string bytes in
      Bytes.set corrupted 1
        (Char.chr (Char.code (Bytes.get corrupted 1) lxor (1 lsl bit)));
      match H.decode (Bytes.to_string corrupted) with
      | Error H.Bad_checksum -> ()
      | Error e -> Alcotest.failf "bit %d: wrong error %a" bit H.pp_error e
      | Ok (h, _) -> Alcotest.failf "bit %d: decoded with ttl %d" bit h.H.ttl)
    [ 0; 3; 7 ]

let test_checksum_rfc1071 () =
  (* the classic RFC 1071 example: 00 01 f2 03 f4 f5 f6 f7 -> sum ddf2,
     checksum = complement = 220d *)
  let s = "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7" in
  Alcotest.(check int) "rfc1071 example" 0x220d (H.checksum s)

(* --- header: properties --- *)

let gen_route =
  QCheck2.Gen.(
    let* words = 1 -- 8 in
    let* parts = list_size (pure words) (map Int64.abs int64) in
    pure
      (List.fold_left
         (fun acc p ->
           Z.add (Z.shift_left acc 32)
             (Z.of_int (Int64.to_int (Int64.logand p 0xFFFFFFFFL))))
         Z.zero parts))

let prop_roundtrip =
  qtest "encode/decode roundtrip with trailing payload"
    QCheck2.Gen.(pair gen_route (0 -- 255))
    (fun (rid, ttl) ->
      match H.encode (H.make ~ttl rid) with
      | Error _ -> false
      | Ok bytes ->
        (* decoding must also work with payload appended *)
        (match H.decode (bytes ^ "payload-bytes") with
         | Ok (h, consumed) ->
           consumed = String.length bytes
           && h.H.ttl = ttl
           && Z.equal h.H.route_id rid
         | Error _ -> false))

let prop_bitflip_detected =
  qtest ~count:300 "any single bit flip is detected or changes nothing"
    QCheck2.Gen.(pair gen_route (0 -- 200))
    (fun (rid, flip) ->
      match H.encode (H.make ~ttl:7 rid) with
      | Error _ -> false
      | Ok bytes ->
        let bit = flip mod (8 * String.length bytes) in
        let corrupted = Bytes.of_string bytes in
        let i = bit / 8 in
        Bytes.set corrupted i
          (Char.chr (Char.code (Bytes.get corrupted i) lxor (1 lsl (bit mod 8))));
        (match H.decode (Bytes.to_string corrupted) with
         | Error _ -> true (* rejected: good *)
         | Ok (h, _) ->
           (* a flip in the ttl byte changes only the ttl (not covered by a
              dedicated integrity goal? it IS covered by the checksum) —
              anything decoded must not silently change the route id *)
           Z.equal h.H.route_id rid))

(* --- serial: topology files --- *)

let graphs_equal g1 g2 =
  Topo.Graph.n_nodes g1 = Topo.Graph.n_nodes g2
  && Topo.Graph.n_links g1 = Topo.Graph.n_links g2
  && List.for_all2
       (fun (a : Topo.Graph.link) (b : Topo.Graph.link) ->
         a.Topo.Graph.ep0 = b.Topo.Graph.ep0
         && a.Topo.Graph.ep1 = b.Topo.Graph.ep1
         && a.Topo.Graph.rate_bps = b.Topo.Graph.rate_bps
         && a.Topo.Graph.delay_s = b.Topo.Graph.delay_s)
       (Topo.Graph.links g1) (Topo.Graph.links g2)
  && List.for_all
       (fun v ->
         Topo.Graph.label g1 v = Topo.Graph.label g2 v
         && Topo.Graph.kind g1 v = Topo.Graph.kind g2 v)
       (List.init (Topo.Graph.n_nodes g1) (fun i -> i))

(* Every topology the CLIs accept by name, so a name and its exported file
   simulate the same network. *)
let test_serial_roundtrip_paper_nets () =
  List.iter
    (fun (name, g) ->
      match Topo.Serial.of_string (Topo.Serial.to_string g) with
      | Ok g' -> Alcotest.(check bool) name true (graphs_equal g g')
      | Error e -> Alcotest.failf "%s: %a" name Topo.Serial.pp_error e)
    [ ("fig1", Topo.Nets.fig1_six.Topo.Nets.graph);
      ("net15", Topo.Nets.net15.Topo.Nets.graph);
      ("rnp28", Topo.Nets.rnp28.Topo.Nets.graph);
      ("fig8", Topo.Nets.rnp_fig8.Topo.Nets.graph);
      ("gen:32", Experiments.Service.testbed ~n_core:32 ()) ]

let test_serial_comments_and_blank_lines () =
  let text =
    "# a comment\n\nnode 3 core\nnode 5 core # trailing comment\n\nlink 3:0 5:0\n"
  in
  match Topo.Serial.of_string text with
  | Ok g ->
    Alcotest.(check int) "two nodes" 2 (Topo.Graph.n_nodes g);
    Alcotest.(check int) "one link" 1 (Topo.Graph.n_links g)
  | Error e -> Alcotest.failf "%a" Topo.Serial.pp_error e

let expect_error text fragment =
  match Topo.Serial.of_string text with
  | Ok _ -> Alcotest.failf "expected a parse error mentioning %S" fragment
  | Error e ->
    Alcotest.(check bool)
      (Printf.sprintf "error mentions %S (got %S)" fragment e.Topo.Serial.message)
      true
      (Astring.String.is_infix ~affix:fragment e.Topo.Serial.message)

let test_serial_errors () =
  expect_error "node 3 core\nnode 3 edge\n" "duplicate";
  expect_error "frobnicate 1 2\n" "unknown record";
  expect_error "node 3 core\nlink 3:0 9:0\n" "unknown node";
  expect_error "node 3 blue\n" "unknown node kind";
  (* a core switch ID the per-packet kernel cannot reduce by *)
  expect_error "node 2147483659 core\n" "2147483659";
  expect_error "node 3 core\nnode 5 core\nlink 3:zero 5:0\n" "bad endpoint";
  (* link parameters that would crash the engine or strand packets *)
  let two = "node 3 core\nnode 5 core\n" in
  List.iter
    (fun (fields, what) ->
      let text = two ^ "link 3:0 5:0 " ^ fields ^ "\n" in
      expect_error text ("link 3:0-5:0 has " ^ what);
      match Topo.Serial.of_string text with
      | Error e -> Alcotest.(check int) ("line of " ^ fields) 3 e.Topo.Serial.line
      | Ok _ -> ())
    [
      ("1e9 -1e-3", "delay");
      ("1e9 nan", "delay");
      ("1e9 inf", "delay");
      ("-1e9 1e-3", "rate");
      ("0 1e-3", "rate");
      ("nan", "rate");
      ("inf 1e-3", "rate");
    ];
  (match Topo.Serial.of_string (two ^ "link 3:0 5:0 1e9 0\n") with
   | Ok g ->
     Alcotest.(check (float 0.0)) "zero delay is legal" 0.0
       (Topo.Graph.link g 0).Topo.Graph.delay_s
   | Error e -> Alcotest.failf "zero delay rejected: %s" e.Topo.Serial.message);
  (* sparse ports are a finish-time error reported at line 0 *)
  match Topo.Serial.of_string "node 3 core\nnode 5 core\nlink 3:4 5:0\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "sparse ports accepted"

let prop_serial_roundtrip_generated =
  qtest ~count:30 "generated topologies round-trip"
    QCheck2.Gen.(1 -- 1000)
    (fun seed ->
      let g = Topo.Gen.gnp ~n:14 ~p:0.25 ~seed in
      match Topo.Serial.of_string (Topo.Serial.to_string g) with
      | Ok g' -> graphs_equal g g'
      | Error _ -> false)

(* decoders must be total: random bytes are rejected or parsed, never a
   crash *)
let prop_decode_total =
  qtest ~count:1000 "Header.decode never raises on random bytes"
    QCheck2.Gen.(string_size ~gen:char (0 -- 64))
    (fun s ->
      match H.decode s with
      | Ok _ | Error _ -> true)

let prop_serial_total =
  qtest ~count:300 "Serial.of_string never raises on random text"
    QCheck2.Gen.(string_size ~gen:printable (0 -- 200))
    (fun s ->
      match Topo.Serial.of_string s with
      | Ok _ | Error _ -> true)

(* --- flat packet image --- *)

module F = Wire.Flat
module Packet = Netsim.Packet

let stamp_all b ~uid ~src ~dst ~size_bytes ~route_id ~hops ~reencoded
    ~deflected =
  F.stamp b ~uid ~src ~dst ~size_bytes ~route_id;
  F.set_hops b hops;
  F.set_reencoded b reencoded;
  F.set_deflected b deflected

let test_flat_roundtrip_known () =
  let b = F.create () in
  Alcotest.(check bool) "fresh image not live" false (F.live b);
  Alcotest.(check int) "fresh image zero limbs" 0 (F.limbs b);
  List.iter
    (fun (uid, src, dst, size_bytes, rid) ->
      let route_id = Z.of_string rid in
      F.stamp b ~uid ~src ~dst ~size_bytes ~route_id;
      Alcotest.(check int) "uid" uid (F.uid b);
      Alcotest.(check int) "src" src (F.src b);
      Alcotest.(check int) "dst" dst (F.dst b);
      Alcotest.(check int) "size" size_bytes (F.size_bytes b);
      Alcotest.(check string) "route id" rid (Z.to_string (F.route_id b));
      Alcotest.(check int) "hops cleared" 0 (F.hops b);
      Alcotest.(check int) "reencoded cleared" 0 (F.reencoded b);
      Alcotest.(check bool) "deflected cleared" false (F.deflected b);
      Alcotest.(check bool) "live after stamp" true (F.live b);
      Alcotest.(check int) "wire version" H.current_version (F.version b);
      Alcotest.(check bool) "route_id_equal self" true
        (F.route_id_equal b route_id);
      Alcotest.(check bool) "route_id_equal other" false
        (F.route_id_equal b (Z.add route_id Z.one)))
    [ (0, 0, 0, 0, "0");
      (7, 1, 5, 512, "44");
      (max_int, 0xFFFF_FFFF, 0xFFFF_FFFF, 0xFFFF_FFFF, "660");
      (42, 1001, 1003, 1500, "340282366920938463463374607431768211455") ]

let test_flat_field_edges () =
  (* hops/reencoded are u16 counters, deflected is a flag bit next to live:
     each must round-trip at both ends without disturbing its neighbours *)
  let b = F.create () in
  let rid = Z.of_string "4409424109091" in
  F.stamp b ~uid:9 ~src:2 ~dst:3 ~size_bytes:64 ~route_id:rid;
  List.iter
    (fun v ->
      F.set_hops b v;
      Alcotest.(check int) (Printf.sprintf "hops %d" v) v (F.hops b))
    [ 0; 1; 255; 256; 65535 ];
  List.iter
    (fun v ->
      F.set_reencoded b v;
      Alcotest.(check int) (Printf.sprintf "reencoded %d" v) v (F.reencoded b))
    [ 0; 1; 65535 ];
  F.set_deflected b true;
  Alcotest.(check bool) "deflected set" true (F.deflected b);
  Alcotest.(check bool) "live undisturbed" true (F.live b);
  F.set_live b false;
  Alcotest.(check bool) "deflected undisturbed" true (F.deflected b);
  F.set_deflected b false;
  Alcotest.(check bool) "deflected cleared" false (F.deflected b);
  Alcotest.(check string) "route id undisturbed by flag churn"
    "4409424109091" (Z.to_string (F.route_id b))

let test_flat_rejects_oversize () =
  let b = F.create () in
  (match F.set_route_id b (Z.pow Z.two 1000) with
   | exception Invalid_argument _ -> ()
   | () -> Alcotest.fail "oversize route id accepted");
  match F.set_route_id b (Z.of_int (-5)) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "negative route id accepted"

(* random route IDs across the full width range, weighted to include the
   992-bit maximum (32 limbs) the image can hold *)
let gen_route_wide =
  QCheck2.Gen.(
    let* limbs = 1 -- 32 in
    let* full_width = bool in
    let* parts = list_size (pure limbs) (map Int64.abs int64) in
    (* fold MSB-first; when asked, pin the top limb's high bit so max-width
       (992-bit, 32-limb) images are exercised without overflowing them *)
    let z =
      List.fold_left
        (fun (acc, first) p ->
          let limb = Int64.to_int (Int64.logand p 0x7FFFFFFFL) in
          let limb =
            if first && full_width then limb lor 0x4000_0000 else limb
          in
          (Z.add (Z.shift_left acc 31) (Z.of_int limb), false))
        (Z.zero, true) parts
      |> fst
    in
    pure z)

let prop_flat_roundtrip =
  qtest ~count:300 "flat image round-trips every field"
    QCheck2.Gen.(
      tup4 gen_route_wide (0 -- 0xFFFF) (0 -- 65535) (pair bool (0 -- 1000)))
    (fun (rid, src, hops, (deflected, uid)) ->
      let b = F.create () in
      stamp_all b ~uid ~src ~dst:(src + 1) ~size_bytes:1500 ~route_id:rid
        ~hops ~reencoded:(hops lsr 4) ~deflected;
      F.uid b = uid && F.src b = src
      && F.dst b = src + 1
      && F.size_bytes b = 1500 && F.hops b = hops
      && F.reencoded b = hops lsr 4
      && F.deflected b = deflected
      && Z.equal (F.route_id b) rid
      && F.route_id_equal b rid
      && F.rem_route_id b 13 = Z.rem_int rid 13)

(* the Packet record wraps the image: its accessors and the raw image must
   never disagree *)
let prop_packet_accessors_match_flat =
  qtest ~count:200 "Packet accessors agree with the underlying image"
    QCheck2.Gen.(pair gen_route_wide (1 -- 1_000_000))
    (fun (rid, uid) ->
      let p =
        Packet.make ~uid ~src:3 ~dst:9 ~size_bytes:256 ~route_id:rid
          ~born:0.25 Packet.Raw
      in
      Packet.set_hops p 7;
      Packet.set_reencoded p 2;
      Packet.set_deflected p true;
      let b = Packet.bytes p in
      Packet.uid p = F.uid b && Packet.src p = F.src b
      && Packet.dst p = F.dst b
      && Packet.size_bytes p = F.size_bytes b
      && Packet.hops p = F.hops b
      && Packet.reencoded p = F.reencoded b
      && Packet.deflected p = F.deflected b
      && Z.equal (Packet.route_id p) (F.route_id b)
      && Packet.born p = 0.25)

(* --- flat vs record forwarding: the data plane must be indistinguishable —
   same computed port, same packed choice, same PRNG stream — for every
   net15 core switch, every port-liveness mask, every policy *)

let test_flat_vs_record_decide () =
  let sc = Topo.Nets.net15 in
  let g = sc.Topo.Nets.graph in
  let plan = Kar.Controller.scenario_plan sc Kar.Controller.Full in
  let other = Z.add plan.Kar.Route.route_id Z.one in
  let b = F.create () in
  List.iter
    (fun (r : Rns.residue) ->
      let sw = r.Rns.modulus in
      let degree = Topo.Graph.degree g (Topo.Graph.node_of_label g sw) in
      List.iter
        (fun route_id ->
          F.stamp b ~uid:1 ~src:0 ~dst:1 ~size_bytes:64 ~route_id;
          let computed_rec = Kar.Policy.computed_port ~switch_id:sw ~route_id in
          Alcotest.(check int)
            (Printf.sprintf "computed_port SW%d" sw)
            computed_rec
            (Kar.Policy.computed_port_flat ~switch_id:sw b);
          let computed_flat = Kar.Route.cached_port_flat plan b ~switch_id:sw in
          Alcotest.(check int)
            (Printf.sprintf "cached_port_flat SW%d" sw)
            computed_rec computed_flat;
          for live = 0 to (1 lsl degree) - 1 do
            List.iter
              (fun policy ->
                List.iter
                  (fun deflected ->
                    let choose computed =
                      Kar.Policy.choose policy ~computed ~in_port:0 ~deflected
                        ~degree ~live
                    in
                    let c_rec = choose computed_rec
                    and c_flat = choose computed_flat in
                    if c_rec <> c_flat then
                      Alcotest.failf
                        "SW%d mask %#x policy %s deflected %b: record %d, \
                         flat %d"
                        sw live
                        (Kar.Policy.to_string policy)
                        deflected c_rec c_flat;
                    (* the PRNG streams must stay draw-for-draw aligned *)
                    if c_rec > 0 then begin
                      let seed = (sw * 7919) + (live * 31) + 1 in
                      let rng_rec = Util.Prng.of_int seed in
                      let rng_flat = Util.Prng.of_int seed in
                      if
                        Kar.Policy.pick rng_rec c_rec
                        <> Kar.Policy.pick rng_flat c_flat
                        || Util.Prng.next rng_rec <> Util.Prng.next rng_flat
                      then
                        Alcotest.failf
                          "SW%d mask %#x policy %s: PRNG streams diverged" sw
                          live
                          (Kar.Policy.to_string policy)
                    end)
                  [ false; true ])
              Kar.Policy.all
          done)
        [ plan.Kar.Route.route_id; other ])
    plan.Kar.Route.residues

(* The acceptance bar of this layer: a whole steady-state simulated packet
   — pool acquire, stamp, four hop decisions off the limb view, release —
   touches the minor heap not at all once the pool is warm.  (The bench
   gauge gc/forward-minor-words-per-packet reports the same quantity;
   this pins it in the suite.)  The switch's reader is built once, as
   Karnet builds it at install. *)
let test_flat_packet_zero_alloc () =
  let sc = Topo.Nets.net15 in
  let g = sc.Topo.Nets.graph in
  let plan = Kar.Controller.scenario_plan sc Kar.Controller.Full in
  let route_id = plan.Kar.Route.route_id in
  let degree = Topo.Graph.degree g (Topo.Graph.node_of_label g 13) in
  let live = (1 lsl degree) - 1 in
  let rng = Util.Prng.of_int 9 in
  let pool = Packet.Pool.create () in
  let born = Sys.opaque_identity 0.0 in
  let port_at_13 = Kar.Route.cached_port_flat plan ~switch_id:13 in
  let packet_round i =
    let p = Packet.Pool.acquire pool in
    Packet.stamp p ~uid:i ~src:1 ~dst:5 ~size_bytes:512 ~route_id ~born
      Packet.Raw;
    let b = Packet.bytes p in
    for hop = 0 to 3 do
      Packet.set_hops p hop;
      let c = port_at_13 b in
      let choice =
        Kar.Policy.choose Kar.Policy.Not_input_port ~computed:c ~in_port:0
          ~deflected:false ~degree ~live
      in
      ignore
        (Sys.opaque_identity
           (if choice < 0 then lnot choice else Kar.Policy.pick rng choice))
    done;
    Packet.Pool.release pool p
  in
  for i = 1 to 100 do packet_round i done;
  let iters = 100_000 in
  let w0 = Gc.minor_words () in
  for i = 1 to iters do packet_round i done;
  let delta = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words over %d packets" delta iters)
    true (delta <= 256.0)

let () =
  Alcotest.run "wire"
    [
      ( "header",
        [
          Alcotest.test_case "roundtrip (known values)" `Quick test_header_roundtrip_known;
          Alcotest.test_case "sizes" `Quick test_header_sizes;
          Alcotest.test_case "oversize rejected" `Quick test_header_rejects_oversize;
          Alcotest.test_case "negative rejected" `Quick test_header_rejects_negative;
          Alcotest.test_case "truncation rejected" `Quick test_header_rejects_truncation;
          Alcotest.test_case "corruption detected" `Quick test_header_detects_corruption;
          Alcotest.test_case "bad version rejected" `Quick test_header_bad_version;
          Alcotest.test_case "ttl boundaries round-trip" `Quick test_header_ttl_boundaries;
          Alcotest.test_case "out-of-range ttl rejected" `Quick test_header_bad_ttl;
          Alcotest.test_case "ttl corruption detected" `Quick
            test_header_ttl_corruption_detected;
          Alcotest.test_case "RFC 1071 checksum" `Quick test_checksum_rfc1071;
          prop_roundtrip; prop_bitflip_detected; prop_decode_total;
        ] );
      ( "serial",
        [
          Alcotest.test_case "paper topologies round-trip" `Quick
            test_serial_roundtrip_paper_nets;
          Alcotest.test_case "comments and blanks" `Quick test_serial_comments_and_blank_lines;
          Alcotest.test_case "parse errors" `Quick test_serial_errors;
          prop_serial_roundtrip_generated; prop_serial_total;
        ] );
      ( "flat",
        [
          Alcotest.test_case "roundtrip (known values)" `Quick
            test_flat_roundtrip_known;
          Alcotest.test_case "counter and flag edges" `Quick
            test_flat_field_edges;
          Alcotest.test_case "oversize/negative rejected" `Quick
            test_flat_rejects_oversize;
          prop_flat_roundtrip;
          prop_packet_accessors_match_flat;
          Alcotest.test_case
            "flat vs record: every switch x mask x policy" `Quick
            test_flat_vs_record_decide;
          Alcotest.test_case "whole packet allocates nothing" `Quick
            test_flat_packet_zero_alloc;
        ] );
    ]

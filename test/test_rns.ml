(* Tests for the Residue Number System encoding — the heart of KAR.

   Anchored on the paper's worked examples (R = 44 and R = 660), plus
   randomized CRT properties: roundtrip, uniqueness below the modulus
   product and order independence of the residue list (the commutativity
   that makes driven-deflection protection possible), on small systems,
   on wide ones (tens of residues, moduli up to 2^31 - 1) and against a
   brute-force search. *)

module Z = Bignum.Z

let z = Alcotest.testable Z.pp Z.equal

let residue modulus value = { Rns.modulus; value }

(* --- unit: the paper's example --- *)

let test_paper_primary () =
  let r, m = Rns.encode_exn [ residue 4 0; residue 7 2; residue 11 0 ] in
  Alcotest.check z "R" (Z.of_int 44) r;
  Alcotest.check z "M" (Z.of_int 308) m

let test_paper_protected () =
  let r, m =
    Rns.encode_exn [ residue 4 0; residue 7 2; residue 11 0; residue 5 0 ]
  in
  Alcotest.check z "R" (Z.of_int 660) r;
  Alcotest.check z "M" (Z.of_int 1540) m

let test_paper_decode () =
  Alcotest.(check (list int))
    "ports of 660" [ 0; 2; 0; 0 ]
    (Rns.decode (Z.of_int 660) [ 4; 7; 11; 5 ]);
  Alcotest.(check (list int))
    "ports of 44" [ 0; 2; 0 ]
    (Rns.decode (Z.of_int 44) [ 4; 7; 11 ])

(* --- unit: error paths --- *)

let test_not_coprime () =
  match Rns.encode [ residue 4 1; residue 6 1 ] with
  | Error (Rns.Not_pairwise_coprime (a, b)) ->
    Alcotest.(check bool) "pair" true ((a, b) = (4, 6) || (a, b) = (6, 4))
  | Error e -> Alcotest.failf "wrong error: %s" (Rns.error_to_string e)
  | Ok _ -> Alcotest.fail "expected failure"

let test_residue_out_of_range () =
  match Rns.encode [ residue 5 5 ] with
  | Error (Rns.Residue_out_of_range _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Rns.error_to_string e)
  | Ok _ -> Alcotest.fail "expected failure"

let test_empty () =
  match Rns.encode [] with
  | Error Rns.Empty_system -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Rns.error_to_string e)
  | Ok _ -> Alcotest.fail "expected failure"

let test_nonpositive () =
  match Rns.encode [ residue 1 0 ] with
  | Error (Rns.Nonpositive_modulus 1) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Rns.error_to_string e)
  | Ok _ -> Alcotest.fail "expected failure"

(* A switch ID of 2^31 or more would overflow the fold's machine-int
   step; it is a typed error, not a wrong route ID. *)
let test_modulus_too_large () =
  List.iter
    (fun s ->
      match Rns.encode [ residue s 1 ] with
      | Error (Rns.Modulus_too_large m) -> Alcotest.(check int) "modulus" s m
      | Error e -> Alcotest.failf "wrong error: %s" (Rns.error_to_string e)
      | Ok _ -> Alcotest.failf "switch ID %d accepted" s)
    [ 2147483659; 1 lsl 31 ]

let test_coprime () =
  Alcotest.(check bool) "4,7" true (Rns.coprime 4 7);
  Alcotest.(check bool) "4,6" false (Rns.coprime 4 6);
  Alcotest.(check bool) "1,n" true (Rns.coprime 1 99);
  Alcotest.(check bool) "9,10" true (Rns.coprime 9 10)

let test_bit_length_bound () =
  Alcotest.(check int) "M=308" 9 (Rns.bit_length_bound (Z.of_int 308));
  Alcotest.(check int) "M=1540" 11 (Rns.bit_length_bound (Z.of_int 1540));
  Alcotest.(check int) "M=1" 0 (Rns.bit_length_bound Z.one);
  Alcotest.(check int) "M=2" 1 (Rns.bit_length_bound Z.two);
  (* The route ID can equal M-1 itself, so for M = 2^20 + 1 the field needs
     21 bits; the paper's literal ceil(log2(M-1)) would say 20 only because
     the formula has a corner case at exact powers of two. *)
  Alcotest.(check int) "M=2^20+1" 21 (Rns.bit_length_bound (Z.add (Z.pow Z.two 20) Z.one))

(* --- generators: random pairwise-coprime residue systems --- *)

let primes_pool =
  [| 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37; 41; 43; 47; 53; 59; 61; 67; 71; 73 |]

let gen_system =
  QCheck2.Gen.(
    let* n = 1 -- 8 in
    let* start = 0 -- (Array.length primes_pool - 9) in
    let moduli = Array.to_list (Array.sub primes_pool start n) in
    let* values = flatten_l (List.map (fun m -> 0 -- (m - 1)) moduli) in
    pure (List.map2 (fun modulus value -> { Rns.modulus; value }) moduli values))

let qtest ?(count = 300) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let prop_roundtrip =
  qtest "decode (encode rs) recovers every residue" gen_system (fun rs ->
      let r, _ = Rns.encode_exn rs in
      List.for_all (fun { Rns.modulus; value } -> Rns.port r modulus = value) rs)

let prop_range =
  qtest "0 <= R < M" gen_system (fun rs ->
      let r, m = Rns.encode_exn rs in
      Z.sign r >= 0 && Z.compare r m < 0)

let prop_unique =
  qtest "R is the unique solution below M" gen_system (fun rs ->
      let r, m = Rns.encode_exn rs in
      let other = Z.erem (Z.add r Z.one) m in
      Z.equal other r
      || not
           (List.for_all
              (fun { Rns.modulus; value } -> Rns.port other modulus = value)
              rs))

let prop_order_independent =
  qtest "residue order does not change R (Eq. 4 commutativity)" gen_system
    (fun rs ->
      let r1, m1 = Rns.encode_exn rs in
      let r2, m2 = Rns.encode_exn (List.rev rs) in
      Z.equal r1 r2 && Z.equal m1 m2)

let prop_pairwise_coprime_check =
  qtest "pairwise_coprime accepts prime subsets"
    QCheck2.Gen.(1 -- 10)
    (fun n ->
      let ids = Array.to_list (Array.sub primes_pool 0 n) in
      Rns.pairwise_coprime ids = Ok ())

let prop_modulus_product =
  qtest "modulus_product = fold of multiplication" gen_system (fun rs ->
      let ids = List.map (fun r -> r.Rns.modulus) rs in
      Z.equal (Rns.modulus_product ids)
        (List.fold_left (fun acc m -> Z.mul acc (Z.of_int m)) Z.one ids))

(* --- wide systems: 20-60 distinct primes below 2^16, plus primes just
   below 2^31, so R runs to 300-1050 bits (10-34 limbs) and the fold's
   machine-int step meets its largest operands --- *)

let primes_below n =
  let sieve = Array.make n true in
  for i = 2 to n - 1 do
    if sieve.(i) then begin
      let j = ref (i * i) in
      while !j < n do
        sieve.(!j) <- false;
        j := !j + i
      done
    end
  done;
  List.filter (fun i -> sieve.(i)) (List.init (n - 2) (fun i -> i + 2))

let primes_16 = primes_below (1 lsl 16)
let primes_near_2_31 = [ 2147483647; 2147483629; 2147483587 ]

let gen_wide_system =
  QCheck2.Gen.(
    let* n = 20 -- 60 in
    let* small = shuffle_l primes_16 in
    let* k = 1 -- List.length primes_near_2_31 in
    let take j l = List.filteri (fun i _ -> i < j) l in
    let* moduli = shuffle_l (take n small @ take k primes_near_2_31) in
    let* values = flatten_l (List.map (fun m -> 0 -- (m - 1)) moduli) in
    pure (List.map2 (fun modulus value -> { Rns.modulus; value }) moduli values))

let prop_wide_systems =
  qtest ~count:100 "wide systems: roundtrip, range, order" gen_wide_system
    (fun rs ->
      let r, m = Rns.encode_exn rs in
      let by_modulus = List.sort (fun a b -> compare a.Rns.modulus b.Rns.modulus) rs in
      List.for_all (fun { Rns.modulus; value } -> Rns.port r modulus = value) rs
      && Z.sign r >= 0 && Z.compare r m < 0
      && Z.equal m (Rns.modulus_product (List.map (fun x -> x.Rns.modulus) rs))
      && List.for_all
           (fun order ->
             let r', m' = Rns.encode_exn order in
             Z.equal r r' && Z.equal m m')
           [ List.rev rs; by_modulus ])

(* --- oracle: for M <= 10^5, scan [0, M) for every value that recovers
   all residues; there must be exactly one and it must be [encode]'s R.
   Moduli are pairwise-coprime picks from [2, 60], composites included. *)

let gen_small_system =
  QCheck2.Gen.(
    let* candidates = list_size (1 -- 8) (2 -- 60) in
    let moduli =
      List.fold_left
        (fun acc s ->
          if List.for_all (Rns.coprime s) acc && List.fold_left ( * ) s acc <= 100_000
          then acc @ [ s ]
          else acc)
        [] candidates
    in
    let* values = flatten_l (List.map (fun m -> 0 -- (m - 1)) moduli) in
    pure (List.map2 (fun modulus value -> { Rns.modulus; value }) moduli values))

let prop_brute_force =
  qtest ~count:200 "encode = brute-force search (M <= 10^5)" gen_small_system
    (fun rs ->
      let r, m = Rns.encode_exn rs in
      let solves x = List.for_all (fun { Rns.modulus; value } -> x mod modulus = value) rs in
      let rec solutions x acc =
        if x < 0 then acc else solutions (x - 1) (if solves x then x :: acc else acc)
      in
      solutions (Z.to_int_exn m - 1) [] = [ Z.to_int_exn r ])

(* --- the accumulator under a budget: a residue is folded in exactly
   when the grown modulus's Eq. 9 bound fits, a refused one leaves the
   state as it was, and the state equals [encode] of the residues kept.
   Small systems start from M = 1 with moduli such as 2, 4, 8 and 32, so
   the bound is taken at powers of two too; wide ones grow the buffers
   past their first size with factors up to 2^31 - 1. *)

let eq9 m = if Z.compare m Z.one <= 0 then 0 else Z.bit_length (Z.sub m Z.one)

let prop_acc_budget =
  qtest ~count:300 "Acc.add under a budget = encode of the residues it kept"
    QCheck2.Gen.(
      pair (oneof [ gen_small_system; gen_wide_system ]) (oneof [ 0 -- 20; 0 -- 1200 ]))
    (fun (rs, max_bits) ->
      let acc = Rns.Acc.create Z.zero Z.one in
      let rule_holds, kept, m =
        List.fold_left
          (fun (ok, kept, m) r ->
            let grown = Z.mul m (Z.of_int r.Rns.modulus) in
            let fits = eq9 grown <= max_bits in
            let before = (Rns.Acc.route_id acc, Rns.Acc.modulus acc) in
            let folded = Rns.Acc.add ~max_bits acc r in
            let untouched = (Rns.Acc.route_id acc, Rns.Acc.modulus acc) = before in
            ( ok && folded = fits && (folded || untouched),
              (if folded then r :: kept else kept),
              if folded then grown else m ))
          (true, [], Z.one) rs
      in
      let want_r, want_m =
        match kept with [] -> (Z.zero, Z.one) | _ -> Rns.encode_exn (List.rev kept)
      in
      rule_holds
      && Z.equal (Rns.Acc.route_id acc) want_r
      && Z.equal (Rns.Acc.modulus acc) want_m
      && Z.equal want_m m
      && Rns.Acc.bits acc = eq9 want_m)

(* --- any system, valid or not: [encode] against a reference rule ---

   Moduli come from [-2, 60] plus 2^31 - 1 and 2^31, so composites,
   repeats, 0, 1, negatives and too-large switch IDs all occur; values
   come from [-2, 62], mostly below their modulus so that valid systems
   occur too. *)

let gen_any_system =
  QCheck2.Gen.(
    let modulus =
      frequency [ (12, -2 -- 60); (1, oneofl [ (1 lsl 31) - 1; 1 lsl 31 ]) ]
    in
    let residue =
      let* modulus = modulus in
      let* value =
        if modulus >= 1 then
          frequency [ (4, 0 -- (min modulus 63 - 1)); (1, -2 -- 62) ]
        else -2 -- 62
      in
      pure { Rns.modulus; value }
    in
    list_size (0 -- 8) residue)

(* The reference rule: an empty system, then the range checks in list
   order, then the first pair (in list order) that shares a factor. *)
let reference_error rs =
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let range { Rns.modulus; value } =
    if modulus <= 1 then Some (Rns.Nonpositive_modulus modulus)
    else if modulus >= 1 lsl 31 then Some (Rns.Modulus_too_large modulus)
    else if value < 0 || value >= modulus then
      Some (Rns.Residue_out_of_range { Rns.modulus; value })
    else None
  in
  let rec shared = function
    | [] -> None
    | a :: rest ->
      (match List.find_opt (fun b -> gcd a b <> 1) rest with
       | Some b -> Some (Rns.Not_pairwise_coprime (a, b))
       | None -> shared rest)
  in
  if rs = [] then Some Rns.Empty_system
  else
    match List.find_map range rs with
    | Some e -> Some e
    | None -> shared (List.map (fun r -> r.Rns.modulus) rs)

let prop_any_system =
  qtest ~count:2000 "any system: same error as the reference, or a sound R"
    gen_any_system (fun rs ->
      match (Rns.encode rs, reference_error rs) with
      | Error e, want -> want = Some e
      | Ok (r, m), None ->
        Z.equal m (Rns.modulus_product (List.map (fun x -> x.Rns.modulus) rs))
        && Z.sign r >= 0 && Z.compare r m < 0
        && List.for_all (fun { Rns.modulus; value } -> Rns.port r modulus = value) rs
      | Ok _, Some _ -> false)

let test_single_residue () =
  let r, m = Rns.encode_exn [ residue 7 3 ] in
  Alcotest.check z "R" (Z.of_int 3) r;
  Alcotest.check z "M" (Z.of_int 7) m

let test_modulus_two () =
  let r, _ = Rns.encode_exn [ residue 2 1; residue 3 0 ] in
  Alcotest.(check int) "port at 2" 1 (Rns.port r 2);
  Alcotest.(check int) "port at 3" 0 (Rns.port r 3)

let test_port_invalid_switch () =
  match Rns.port (Z.of_int 5) 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "switch id 0 accepted"

(* The single validated entry point: switch ID 1 is degenerate but legal (everything is 0 mod 1); non-positive IDs raise
   through the same check. *)
let test_port_switch_one () =
  Alcotest.(check int) "R mod 1" 0 (Rns.port (Z.of_int 660) 1);
  Alcotest.(check int) "0 mod 1" 0 (Rns.port Z.zero 1)

let test_port_negative_switch () =
  match Rns.port (Z.of_int 5) (-3) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative switch id accepted"

let () =
  Alcotest.run "rns"
    [
      ( "paper",
        [
          Alcotest.test_case "primary route ID = 44" `Quick test_paper_primary;
          Alcotest.test_case "protected route ID = 660" `Quick test_paper_protected;
          Alcotest.test_case "decode paper values" `Quick test_paper_decode;
        ] );
      ( "errors",
        [
          Alcotest.test_case "not coprime" `Quick test_not_coprime;
          Alcotest.test_case "residue out of range" `Quick test_residue_out_of_range;
          Alcotest.test_case "empty system" `Quick test_empty;
          Alcotest.test_case "nonpositive modulus" `Quick test_nonpositive;
          Alcotest.test_case "modulus too large" `Quick test_modulus_too_large;
          Alcotest.test_case "coprime predicate" `Quick test_coprime;
          Alcotest.test_case "bit length bound (Eq. 9)" `Quick test_bit_length_bound;
          Alcotest.test_case "single residue" `Quick test_single_residue;
          Alcotest.test_case "modulus two" `Quick test_modulus_two;
          Alcotest.test_case "port at invalid switch" `Quick test_port_invalid_switch;
          Alcotest.test_case "port at switch 1" `Quick test_port_switch_one;
          Alcotest.test_case "port at negative switch" `Quick test_port_negative_switch;
        ] );
      ( "properties",
        [
          prop_roundtrip; prop_range; prop_unique; prop_order_independent;
          prop_pairwise_coprime_check; prop_modulus_product; prop_wide_systems;
          prop_brute_force; prop_acc_budget;
          prop_any_system;
        ] );
    ]

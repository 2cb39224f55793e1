(* Tests for the arbitrary-precision integer substrate.

   Strategy: unit tests for representative and boundary values, and qcheck
   properties checked in two regimes — against the native-int oracle for
   small operands, and against algebraic identities for operands far beyond
   the native range. *)

module Z = Bignum.Z
module Nat = Bignum.Nat

let z_testable = Alcotest.testable Z.pp Z.equal

let check_z = Alcotest.check z_testable

(* --- generators --- *)

(* A bignum from a random decimal string of up to [digits] digits. *)
let gen_big digits =
  QCheck2.Gen.(
    let* len = 1 -- digits in
    let* first = 1 -- 9 in
    let* rest = list_size (pure (len - 1)) (0 -- 9) in
    let* neg = bool in
    let s = String.concat "" (List.map string_of_int (first :: rest)) in
    pure (if neg then Z.neg (Z.of_string s) else Z.of_string s))

let gen_small = QCheck2.Gen.(map Z.of_int (-1_000_000_000 -- 1_000_000_000))

let qtest ?(count = 500) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

(* --- unit tests --- *)

let test_of_int_roundtrip () =
  List.iter
    (fun n ->
      Alcotest.(check (option int))
        (Printf.sprintf "roundtrip %d" n)
        (Some n)
        (Z.to_int_opt (Z.of_int n)))
    [ 0; 1; -1; 42; -42; max_int; min_int; max_int - 1; min_int + 1; 1 lsl 31;
      (1 lsl 62) - 1 ]

let test_string_roundtrip_known () =
  List.iter
    (fun s -> Alcotest.(check string) s s (Z.to_string (Z.of_string s)))
    [ "0"; "1"; "-1"; "123456789"; "-987654321";
      "340282366920938463463374607431768211456" (* 2^128 *);
      "99999999999999999999999999999999999999999999999999" ]

let test_hex_parse () =
  check_z "0xff" (Z.of_int 255) (Z.of_string "0xff");
  check_z "0xFF" (Z.of_int 255) (Z.of_string "0XFF");
  check_z "-0x10" (Z.of_int (-16)) (Z.of_string "-0x10");
  check_z "2^64" (Z.of_string "18446744073709551616") (Z.of_string "0x10000000000000000")

let test_underscores () =
  check_z "1_000_000" (Z.of_int 1_000_000) (Z.of_string "1_000_000")

let test_of_string_errors () =
  List.iter
    (fun s ->
      Alcotest.check_raises s (Invalid_argument "Z.of_string: empty string")
        (fun () ->
          if s = "" then ignore (Z.of_string s) else raise (Invalid_argument "Z.of_string: empty string")))
    [ "" ];
  List.iter
    (fun s ->
      match Z.of_string s with
      | exception Invalid_argument _ -> ()
      | v -> Alcotest.failf "expected failure for %S, got %s" s (Z.to_string v))
    [ "abc"; "12x"; "--3"; "0x"; "+" ]

let test_division_by_zero () =
  Alcotest.check_raises "divmod by zero" Division_by_zero (fun () ->
      ignore (Z.divmod Z.one Z.zero))

let test_min_int_magnitude () =
  (* [-min_int] does not exist as an int; the magnitude must still be
     correct. *)
  let v = Z.of_int min_int in
  Alcotest.(check string) "min_int" (string_of_int min_int) (Z.to_string v);
  check_z "abs min_int via string"
    (Z.of_string (string_of_int min_int |> fun s -> String.sub s 1 (String.length s - 1)))
    (Z.abs v)

let test_pow () =
  check_z "2^10" (Z.of_int 1024) (Z.pow Z.two 10);
  check_z "3^0" Z.one (Z.pow (Z.of_int 3) 0);
  check_z "10^20" (Z.of_string "100000000000000000000") (Z.pow (Z.of_int 10) 20)

let test_bit_length () =
  Alcotest.(check int) "bits 0" 0 (Z.bit_length Z.zero);
  Alcotest.(check int) "bits 1" 1 (Z.bit_length Z.one);
  Alcotest.(check int) "bits 255" 8 (Z.bit_length (Z.of_int 255));
  Alcotest.(check int) "bits 256" 9 (Z.bit_length (Z.of_int 256));
  Alcotest.(check int) "bits 2^128" 129 (Z.bit_length (Z.pow Z.two 128))

let test_shifts () =
  check_z "1 << 100 >> 100" Z.one (Z.shift_right (Z.shift_left Z.one 100) 100);
  check_z "5 << 3" (Z.of_int 40) (Z.shift_left (Z.of_int 5) 3);
  check_z "40 >> 3" (Z.of_int 5) (Z.shift_right (Z.of_int 40) 3);
  check_z "7 >> 1" (Z.of_int 3) (Z.shift_right (Z.of_int 7) 1)

let test_erem_sign () =
  check_z "erem -7 3" Z.two (Z.erem (Z.of_int (-7)) (Z.of_int 3));
  check_z "erem 7 -3" Z.one (Z.erem (Z.of_int 7) (Z.of_int (-3)));
  check_z "erem -7 -3" Z.two (Z.erem (Z.of_int (-7)) (Z.of_int (-3)))

(* --- properties against the int oracle --- *)

let small_pair = QCheck2.Gen.pair gen_small gen_small

let prop_add_oracle =
  qtest "add matches int oracle" small_pair (fun (a, b) ->
      Z.equal (Z.add a b) (Z.of_int (Z.to_int_exn a + Z.to_int_exn b)))

let prop_mul_oracle =
  qtest "mul matches int oracle"
    QCheck2.Gen.(pair (map Z.of_int (-100000 -- 100000)) (map Z.of_int (-100000 -- 100000)))
    (fun (a, b) -> Z.equal (Z.mul a b) (Z.of_int (Z.to_int_exn a * Z.to_int_exn b)))

let prop_divmod_oracle =
  qtest "divmod matches int oracle" small_pair (fun (a, b) ->
      if Z.is_zero b then QCheck2.assume_fail ()
      else begin
        let q, r = Z.divmod a b in
        let ia = Z.to_int_exn a and ib = Z.to_int_exn b in
        Z.to_int_exn q = ia / ib && Z.to_int_exn r = ia mod ib
      end)

let prop_compare_oracle =
  qtest "compare matches int oracle" small_pair (fun (a, b) ->
      Stdlib.compare (Z.to_int_exn a) (Z.to_int_exn b) = Z.compare a b)

(* --- algebraic properties on big operands --- *)

let big_pair = QCheck2.Gen.pair (gen_big 60) (gen_big 60)
let big_triple = QCheck2.Gen.triple (gen_big 40) (gen_big 40) (gen_big 40)

let prop_add_comm =
  qtest "a+b = b+a (big)" big_pair (fun (a, b) -> Z.equal (Z.add a b) (Z.add b a))

let prop_add_assoc =
  qtest "(a+b)+c = a+(b+c) (big)" big_triple (fun (a, b, c) ->
      Z.equal (Z.add (Z.add a b) c) (Z.add a (Z.add b c)))

let prop_mul_comm =
  qtest "a*b = b*a (big)" big_pair (fun (a, b) -> Z.equal (Z.mul a b) (Z.mul b a))

let prop_distrib =
  qtest "a*(b+c) = a*b + a*c (big)" big_triple (fun (a, b, c) ->
      Z.equal (Z.mul a (Z.add b c)) (Z.add (Z.mul a b) (Z.mul a c)))

let prop_sub_inverse =
  qtest "(a+b)-b = a (big)" big_pair (fun (a, b) -> Z.equal (Z.sub (Z.add a b) b) a)

let prop_divmod_invariant =
  qtest "a = q*b + r with |r| < |b| (big)" big_pair (fun (a, b) ->
      if Z.is_zero b then QCheck2.assume_fail ()
      else begin
        let q, r = Z.divmod a b in
        Z.equal a (Z.add (Z.mul q b) r)
        && Z.compare (Z.abs r) (Z.abs b) < 0
        && (Z.is_zero r || Z.sign r = Z.sign a)
      end)

let prop_string_roundtrip =
  qtest "of_string (to_string a) = a (big)" (gen_big 80) (fun a ->
      Z.equal a (Z.of_string (Z.to_string a)))

(* The remainder-only fast kernel against the full euclidean division it
   replaces on the data plane: ~1000-bit operands (both signs), moduli
   across [2, 2^20] — the switch-ID range and beyond. *)
let prop_rem_int_matches_erem =
  qtest ~count:1000 "rem_int a s = erem a s (1000-bit)"
    QCheck2.Gen.(pair (gen_big 300) (2 -- 1_048_576))
    (fun (a, s) ->
      Z.rem_int a s = Z.to_int_exn (Z.erem a (Z.of_int s)))

let prop_rem_int_limb_straddle =
  qtest "rem_int straddling limb counts"
    QCheck2.Gen.(pair (0 -- 93) (2 -- 1000))
    (fun (k, s) ->
      (* 2^k - 1 and 2^k sweep the 0/1/2/3-limb representation boundary
         that the kernel special-cases. *)
      let v = Z.pow Z.two k in
      let pred = Z.sub v Z.one in
      Z.rem_int v s = Z.to_int_exn (Z.erem v (Z.of_int s))
      && Z.rem_int pred s = Z.to_int_exn (Z.erem pred (Z.of_int s)))

(* [bit_length_pred] reads the Eq. 9 width off the limbs: one less than
   [bit_length] exactly at powers of two, here swept across limb
   boundaries (2^k - 1, 2^k, 2^k + 1) and at random values. *)
let prop_bit_length_pred =
  qtest "bit_length_pred a = bit_length (a - 1)"
    QCheck2.Gen.(pair (0 -- 200) (map Z.abs (gen_big 60)))
    (fun (k, a) ->
      let v = Z.pow Z.two k in
      List.for_all
        (fun a ->
          Z.sign a <= 0 || Z.bit_length_pred a = Z.bit_length (Z.sub a Z.one))
        [ Z.sub v Z.one; v; Z.add v Z.one; a ])

let test_rem_int_edges () =
  let big = Z.of_string "123456789012345678901234567890" in
  Alcotest.(check int) "zero" 0 (Z.rem_int Z.zero 7);
  Alcotest.(check int) "s = 1" 0 (Z.rem_int big 1);
  Alcotest.(check int) "negative operand" 5
    (Z.rem_int (Z.of_int (-23)) 7);
  Alcotest.(check int) "negative multiple" 0
    (Z.rem_int (Z.of_int (-21)) 7);
  (* s >= 2^31 takes the erem fallback rather than the limb fold *)
  let s_big = (1 lsl 40) + 7 in
  Alcotest.(check int) "huge modulus fallback"
    (Z.to_int_exn (Z.erem big (Z.of_int s_big)))
    (Z.rem_int big s_big);
  Alcotest.check_raises "zero modulus"
    (Invalid_argument "Z.rem_int: modulus must be positive") (fun () ->
      ignore (Z.rem_int big 0));
  Alcotest.check_raises "negative modulus"
    (Invalid_argument "Z.rem_int: modulus must be positive") (fun () ->
      ignore (Z.rem_int big (-3)))

(* The remainder kernels fold limbs in machine ints and allocate nothing
   at any width: 3, 5 and 32 limbs take the fold, past the 2-limb fast
   path.  [Gc.minor_words] boxes its own float result, hence the slack. *)
let test_rem_int_zero_alloc () =
  List.iter
    (fun limbs ->
      let a = Array.init limbs (fun i -> (i * 7919 + 12345) land (Nat.base - 1)) in
      let a = Array.append (Array.sub a 0 (limbs - 1)) [| 1 + a.(limbs - 1) |] in
      let b = Bytes.create (4 * limbs) in
      ignore (Nat.blit_bytes a b ~pos:0);
      let iters = 10_000 in
      let measure name f =
        for s = 2 to 101 do ignore (Sys.opaque_identity (f s)) done;
        let w0 = Gc.minor_words () in
        for i = 1 to iters do
          ignore (Sys.opaque_identity (f (2 + (i land 0xffff))))
        done;
        let delta = Gc.minor_words () -. w0 in
        Alcotest.(check bool)
          (Printf.sprintf "%s, %d limbs: %.0f minor words over %d calls" name
             limbs delta iters)
          true (delta <= 256.0)
      in
      measure "rem_int" (fun s -> Nat.rem_int a s);
      measure "rem_int_bytes" (fun s -> Nat.rem_int_bytes b ~pos:0 ~limbs s);
      Alcotest.(check bool) (Printf.sprintf "%d limbs: byte view agrees" limbs) true
        (List.for_all
           (fun s -> Nat.rem_int a s = Nat.rem_int_bytes b ~pos:0 ~limbs s)
           [ 2; 3; 7; 65537; Nat.base - 1 ]))
    [ 3; 5; 32 ]

let prop_erem_range =
  qtest "erem in [0, |b|) (big)" big_pair (fun (a, b) ->
      if Z.is_zero b then QCheck2.assume_fail ()
      else begin
        let r = Z.erem a b in
        Z.sign r >= 0 && Z.compare r (Z.abs b) < 0
        && Z.is_zero (Z.erem (Z.sub a r) b)
      end)

let prop_shift_is_mul_pow2 =
  qtest "shift_left = * 2^k"
    QCheck2.Gen.(pair (map Z.abs (gen_big 30)) (0 -- 200))
    (fun (a, k) -> Z.equal (Z.shift_left a k) (Z.mul a (Z.pow Z.two k)))

let prop_bit_length_bound =
  qtest "2^(bits-1) <= |a| < 2^bits" (gen_big 50) (fun a ->
      if Z.is_zero a then Z.bit_length a = 0
      else begin
        let bits = Z.bit_length (Z.abs a) in
        Z.compare (Z.abs a) (Z.pow Z.two bits) < 0
        && Z.compare (Z.pow Z.two (bits - 1)) (Z.abs a) <= 0
      end)

(* Products of operands up to 75 limbs (700 digits) against a
   sum-of-shifts reference: splitting one factor at bit k must not change
   the product. *)
let prop_mul_split_consistent =
  qtest ~count:50 "mul = sum of split-operand products"
    (QCheck2.Gen.pair (gen_big 700) (gen_big 700))
    (fun (a, b) ->
      let a = Z.abs a and b = Z.abs b in
      (* (a*2^k + c)(b) = a*b*2^k + c*b *)
      let k = 310 in
      let hi = Z.shift_right a k and lo = Z.sub a (Z.shift_left (Z.shift_right a k) k) in
      Z.equal (Z.mul a b)
        (Z.add (Z.shift_left (Z.mul hi b) k) (Z.mul lo b)))

let nat_canonical =
  qtest "Nat stays canonical through add/sub/mul"
    (QCheck2.Gen.pair (gen_big 40) (gen_big 40))
    (fun (a, b) ->
      let na = Nat.of_int (Z.to_int_exn (Z.erem (Z.abs a) (Z.of_int 1_000_000))) in
      let nb = Nat.of_int (Z.to_int_exn (Z.erem (Z.abs b) (Z.of_int 1_000_000))) in
      Nat.is_canonical (Nat.add na nb)
      && Nat.is_canonical (Nat.mul na nb)
      && Nat.is_canonical (fst (Nat.divmod na (Nat.add nb Nat.one))))

let test_limb_boundaries () =
  (* values straddling the 31-bit limb size and the 62-bit double-limb *)
  List.iter
    (fun (a, b) ->
      let za = Z.of_string a and zb = Z.of_string b in
      let q, r = Z.divmod za zb in
      check_z "reconstruct" za (Z.add (Z.mul q zb) r))
    [ ("2147483648", "2147483647"); (* 2^31 / 2^31-1 *)
      ("4611686018427387904", "2147483648"); (* 2^62 / 2^31 *)
      ("4611686018427387903", "3"); ("9223372036854775808", "4294967296") ]

let test_shift_edges () =
  check_z "shift 0" (Z.of_int 12345) (Z.shift_left (Z.of_int 12345) 0);
  check_z "shift by limb size" (Z.mul (Z.of_int 7) (Z.pow Z.two 31))
    (Z.shift_left (Z.of_int 7) 31);
  check_z "shift by 62" (Z.mul (Z.of_int 7) (Z.pow Z.two 62))
    (Z.shift_left (Z.of_int 7) 62);
  check_z "right shift below zero" Z.zero (Z.shift_right (Z.of_int 5) 100)

let test_trivial_identities () =
  check_z "erem by 1" Z.zero (Z.erem (Z.of_string "123456789123456789") Z.one);
  check_z "x - x" Z.zero (Z.sub (Z.of_string "999999999999999999999") (Z.of_string "999999999999999999999"));
  Alcotest.(check int) "sign zero" 0 (Z.sign Z.zero);
  check_z "min" (Z.of_int (-5)) (Z.min (Z.of_int (-5)) (Z.of_int 3));
  check_z "max" (Z.of_int 3) (Z.max (Z.of_int (-5)) (Z.of_int 3))

let () =
  Alcotest.run "bignum"
    [
      ( "unit",
        [
          Alcotest.test_case "of_int/to_int roundtrip" `Quick test_of_int_roundtrip;
          Alcotest.test_case "string roundtrip (known)" `Quick test_string_roundtrip_known;
          Alcotest.test_case "hex parsing" `Quick test_hex_parse;
          Alcotest.test_case "underscores" `Quick test_underscores;
          Alcotest.test_case "of_string errors" `Quick test_of_string_errors;
          Alcotest.test_case "division by zero" `Quick test_division_by_zero;
          Alcotest.test_case "min_int magnitude" `Quick test_min_int_magnitude;
          Alcotest.test_case "pow" `Quick test_pow;
          Alcotest.test_case "bit_length" `Quick test_bit_length;
          Alcotest.test_case "shifts" `Quick test_shifts;
          Alcotest.test_case "euclidean remainder signs" `Quick test_erem_sign;
          Alcotest.test_case "limb boundaries" `Quick test_limb_boundaries;
          Alcotest.test_case "shift edges" `Quick test_shift_edges;
          Alcotest.test_case "trivial identities" `Quick test_trivial_identities;
          Alcotest.test_case "rem_int edges" `Quick test_rem_int_edges;
          Alcotest.test_case "rem_int folds allocate nothing (3, 5, 32 limbs)"
            `Quick test_rem_int_zero_alloc;
        ] );
      ( "oracle",
        [ prop_add_oracle; prop_mul_oracle; prop_divmod_oracle; prop_compare_oracle ] );
      ( "algebra",
        [
          prop_add_comm; prop_add_assoc; prop_mul_comm; prop_distrib;
          prop_sub_inverse; prop_divmod_invariant; prop_string_roundtrip;
          prop_erem_range; prop_shift_is_mul_pow2; prop_bit_length_bound;
          prop_mul_split_consistent; nat_canonical;
          prop_rem_int_matches_erem; prop_rem_int_limb_straddle;
          prop_bit_length_pred;
        ] );
    ]

module Z = Bignum.Z
module Nat = Bignum.Nat

type residue = { modulus : int; value : int }

type error =
  | Not_pairwise_coprime of int * int
  | Residue_out_of_range of residue
  | Nonpositive_modulus of int
  | Modulus_too_large of int
  | Empty_system

let rec gcd_int a b = if b = 0 then a else gcd_int b (a mod b)

let pp_error ppf = function
  | Not_pairwise_coprime (a, b) ->
    Format.fprintf ppf "switch IDs %d and %d are not coprime (gcd %d)" a b
      (gcd_int a b)
  | Residue_out_of_range { modulus; value } ->
    Format.fprintf ppf "port %d is not representable at switch ID %d (need 0 <= port < id)"
      value modulus
  | Nonpositive_modulus m -> Format.fprintf ppf "switch ID %d is not positive" m
  | Modulus_too_large m ->
    Format.fprintf ppf "switch ID %d is too large (need id < 2^31)" m
  | Empty_system -> Format.fprintf ppf "empty residue system"

let error_to_string e = Format.asprintf "%a" pp_error e

let coprime a b = gcd_int (abs a) (abs b) = 1

let pairwise_coprime ids =
  let rec outer = function
    | [] -> Ok ()
    | id :: rest ->
      if id <= 0 then Error (Nonpositive_modulus id)
      else begin
        let rec inner = function
          | [] -> outer rest
          | other :: more ->
            if not (coprime id other) then Error (Not_pairwise_coprime (id, other))
            else inner more
        in
        inner rest
      end
  in
  outer ids

let modulus_product ids = Z.product (List.map Z.of_int ids)

(* Moduli below 2^31 keep every product in the CRT fold below inside a
   63-bit int, and keep the remainders on their machine-int limb folds. *)
let max_modulus = 1 lsl 31

let range_error r =
  if r.modulus <= 1 then Some (Nonpositive_modulus r.modulus)
  else if r.modulus >= max_modulus then Some (Modulus_too_large r.modulus)
  else if r.value < 0 || r.value >= r.modulus then Some (Residue_out_of_range r)
  else None

(* [inverse_mod a s] is a^-1 mod s, or -1 when gcd a s > 1, for
   0 <= a < s < 2^31: extended Euclid tracking only a's coefficient
   (r_i = a*u_i mod s), so the gcd and the inverse come from one pass. *)
let inverse_mod a s =
  let rec go r0 u0 r1 u1 =
    if r1 = 0 then if r0 <> 1 then -1 else if u0 < 0 then u0 + s else u0
    else begin
      let q = r0 / r1 in
      go r1 u1 (r0 - (q * r1)) (u0 - (q * u1))
    end
  in
  go a 1 s 0

(* The incremental CRT (paper Eq. 4-8 folded one residue at a time):
   given R < M solving the residues so far, R' = R + M*t with
   t = (p - R mod s) * (M mod s)^-1 mod s solves them and R' = p mod s,
   and R' < M*s.  M mod s is reduced once: s is coprime with every
   modulus folded into M exactly when gcd (s, M mod s) = 1, and the same
   Euclid pass gives the inverse.  Both factors of t's product are below
   s < 2^31, so it fits a 63-bit int.

   (R, M) live in limb buffers that grow in place.  M*s goes to the spare
   buffer [next] first, so the Eq. 9 bound of the grown modulus is known
   before anything is committed; R then takes M*t in place and [m] and
   [next] swap.  A buffer has room for one more limb than M, all that one
   factor below 2^31 can add. *)
module Acc = struct
  type t = {
    mutable r : int array;
    mutable rlen : int;
    mutable m : int array;
    mutable mlen : int;
    mutable next : int array;
    mutable bits : int;
  }

  let create route_id modulus =
    let cap = Z.limb_count modulus + 8 in
    let r = Array.make cap 0 and m = Array.make cap 0 in
    let rlen = Z.blit_nat route_id r and mlen = Z.blit_nat modulus m in
    { r; rlen; m; mlen; next = Array.make cap 0; bits = Nat.bit_length_pred m ~len:mlen }

  let grow a len =
    let b = Array.make (2 * Array.length a) 0 in
    Array.blit a 0 b 0 len;
    b

  let add ?(max_bits = max_int) acc ({ modulus = s; value = p } as res) =
    (match range_error res with
     | Some e -> invalid_arg ("Rns.Acc.add: " ^ error_to_string e)
     | None -> ());
    let inv = inverse_mod (Nat.rem_int_prefix acc.m ~len:acc.mlen s) s in
    if inv < 0 then false
    else begin
      if acc.mlen >= Array.length acc.next then begin
        acc.r <- grow acc.r acc.rlen;
        acc.m <- grow acc.m acc.mlen;
        acc.next <- Array.make (Array.length acc.m) 0
      end;
      let nlen = Nat.mul_int_into acc.m ~len:acc.mlen s acc.next in
      let bits = Nat.bit_length_pred acc.next ~len:nlen in
      if bits > max_bits then false
      else begin
        let t = (p - Nat.rem_int_prefix acc.r ~len:acc.rlen s + s) mod s * inv mod s in
        acc.rlen <- Nat.add_mul_int_into acc.r ~rlen:acc.rlen acc.m ~mlen:acc.mlen t;
        let m = acc.m in
        acc.m <- acc.next;
        acc.mlen <- nlen;
        acc.next <- m;
        acc.bits <- bits;
        true
      end
    end

  let route_id acc = Z.of_nat acc.r ~len:acc.rlen
  let modulus acc = Z.of_nat acc.m ~len:acc.mlen
  let bits acc = acc.bits
end

(* R is unique below M, so folding the residues in any order gives the
   same (R, M).  Every range check runs before the first fold.  A fold
   that finds a shared factor only knows that some earlier modulus shares
   it, so [pairwise_coprime] then names the first offending pair in list
   order; it always finds one. *)
let encode residues =
  match residues with
  | [] -> Error Empty_system
  | _ ->
    (match List.find_map range_error residues with
     | Some e -> Error e
     | None ->
       let acc = Acc.create Z.zero Z.one in
       let rec fold = function
         | [] -> Ok (Acc.route_id acc, Acc.modulus acc)
         | res :: rest ->
           if Acc.add acc res then fold rest
           else (
             match pairwise_coprime (List.map (fun r -> r.modulus) residues) with
             | Error e -> Error e
             | Ok () -> assert false)
       in
       fold residues)

let encode_exn residues =
  match encode residues with
  | Ok v -> v
  | Error e -> invalid_arg ("Rns.encode: " ^ error_to_string e)

(* The [switch_id > 0] check lives in [Z.rem_int], not in a second guard
   here. *)
let port route_id switch_id = Z.rem_int route_id switch_id

let decode route_id ids = List.map (port route_id) ids

let bit_length_bound m = if Z.compare m Z.one <= 0 then 0 else Z.bit_length_pred m

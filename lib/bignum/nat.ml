let limb_bits = 31
let base = 1 lsl limb_bits
let mask = base - 1
let zero = [||]
let one = [| 1 |]
let is_zero a = Array.length a = 0

let is_canonical a =
  let n = Array.length a in
  let ok = ref (n = 0 || a.(n - 1) <> 0) in
  for i = 0 to n - 1 do
    if a.(i) < 0 || a.(i) >= base then ok := false
  done;
  !ok

let normalize a =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int n =
  if n < 0 then invalid_arg "Nat.of_int: negative";
  if n = 0 then zero
  else if n < base then [| n |]
  else begin
    (* A 63-bit OCaml int needs at most three 31-bit limbs. *)
    let l0 = n land mask in
    let l1 = (n lsr limb_bits) land mask in
    let l2 = n lsr (2 * limb_bits) in
    normalize [| l0; l1; l2 |]
  end

let to_int_opt a =
  match Array.length a with
  | 0 -> Some 0
  | 1 -> Some a.(0)
  | 2 -> Some (a.(0) lor (a.(1) lsl limb_bits))
  | 3 when a.(2) < 1 lsl (Sys.int_size - 1 - (2 * limb_bits)) ->
    Some (a.(0) lor (a.(1) lsl limb_bits) lor (a.(2) lsl (2 * limb_bits)))
  | _ -> None

let compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)
  end

let equal a b = compare a b = 0

let add a b =
  let la = Array.length a and lb = Array.length b in
  let lr = 1 + max la lb in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 1 do
    let da = if i < la then a.(i) else 0 in
    let db = if i < lb then b.(i) else 0 in
    let s = da + db + !carry in
    r.(i) <- s land mask;
    carry := s lsr limb_bits
  done;
  assert (!carry = 0);
  normalize r

let sub a b =
  if compare a b < 0 then invalid_arg "Nat.sub: would be negative";
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let db = if i < lb then b.(i) else 0 in
    let d = a.(i) - db - !borrow in
    if d < 0 then begin
      r.(i) <- d + base;
      borrow := 1
    end else begin
      r.(i) <- d;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  normalize r

let mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        (* ai*bj + r + carry <= (B-1)^2 + 2(B-1) = B^2 - 1 = 2^62 - 1: no
           overflow on 64-bit OCaml ints. *)
        let t = (ai * b.(j)) + r.(i + j) + !carry in
        r.(i + j) <- t land mask;
        carry := t lsr limb_bits
      done;
      r.(i + lb) <- r.(i + lb) + !carry
    done;
    normalize r
  end

let shift_left a k =
  if k < 0 then invalid_arg "Nat.shift_left";
  if is_zero a || k = 0 then a
  else begin
    let limb_shift = k / limb_bits and bit_shift = k mod limb_bits in
    let la = Array.length a in
    let r = Array.make (la + limb_shift + 1) 0 in
    for i = 0 to la - 1 do
      let v = a.(i) lsl bit_shift in
      r.(i + limb_shift) <- r.(i + limb_shift) lor (v land mask);
      r.(i + limb_shift + 1) <- v lsr limb_bits
    done;
    normalize r
  end

let shift_right a k =
  if k < 0 then invalid_arg "Nat.shift_right";
  if is_zero a || k = 0 then a
  else begin
    let limb_shift = k / limb_bits and bit_shift = k mod limb_bits in
    let la = Array.length a in
    if limb_shift >= la then zero
    else begin
      let lr = la - limb_shift in
      let r = Array.make lr 0 in
      for i = 0 to lr - 1 do
        let lo = a.(i + limb_shift) lsr bit_shift in
        let hi =
          if bit_shift = 0 || i + limb_shift + 1 >= la then 0
          else (a.(i + limb_shift + 1) lsl (limb_bits - bit_shift)) land mask
        in
        r.(i) <- lo lor hi
      done;
      normalize r
    end
  end

let rec limb_width v acc = if v = 0 then acc else limb_width (v lsr 1) (acc + 1)

let bit_length a =
  let n = Array.length a in
  if n = 0 then 0 else ((n - 1) * limb_bits) + limb_width a.(n - 1) 0

(* Remainder-only reduction by a machine-int modulus: fold the limbs from
   most to least significant with a precomputed [bm = base mod s].  No
   quotient array, no allocation — the loop is a tail recursion over
   machine ints, top-level so that it compiles to a static call: a local
   [let rec] capturing [a], [s] and [bm] is a heap-allocated closure on
   every call.  Overflow-safe for s < base: r, bm <= base - 2 and
   a.(i) <= base - 1, so r*bm + a.(i) <= (2^31-2)^2 + 2^31 - 1 < 2^62 - 1
   = max_int. *)
let rec rem_fold a s bm i r =
  if i < 0 then r else rem_fold a s bm (i - 1) (((r * bm) + Array.unsafe_get a i) mod s)

let rem_int_prefix a ~len s =
  if s <= 0 || s >= base then invalid_arg "Nat.rem_int: modulus out of range";
  if len < 0 || len > Array.length a then invalid_arg "Nat.rem_int_prefix: bad length";
  match len with
  (* magnitudes up to two limbs fit in 62 bits: one machine division,
     skipping even the [base mod s] setup (route IDs of small deployments
     land here) *)
  | 0 -> 0
  | 1 -> Array.unsafe_get a 0 mod s
  | 2 ->
    ((Array.unsafe_get a 1 lsl limb_bits) lor Array.unsafe_get a 0) mod s
  | len -> rem_fold a s (base mod s) (len - 1) 0

let rem_int a s = rem_int_prefix a ~len:(Array.length a) s

(* --- in-place kernels over a limb buffer ------------------------------

   A buffer is an [int array] whose first [len] limbs hold a magnitude
   (top limb nonzero, or [len = 0]); the limbs past [len] are scratch.
   The CRT accumulator in [Rns] grows a route ID and its modulus with
   these, one switch ID at a time, without allocating. *)

(* Both factors are below base, so a limb product plus a carry below base
   stays under (B-1)^2 + B - 1 < 2^62. *)
let mul_int_into a ~len s dst =
  let carry = ref 0 in
  for i = 0 to len - 1 do
    let t = (a.(i) * s) + !carry in
    dst.(i) <- t land mask;
    carry := t lsr limb_bits
  done;
  if !carry = 0 then len
  else begin
    dst.(len) <- !carry;
    len + 1
  end

(* r.(i) + m.(i)*t + carry <= (B-1) + (B-1)^2 + (B-1) = B^2 - 1 = 2^62 - 1:
   the same bound as [mul]'s inner step. *)
let add_mul_int_into r ~rlen m ~mlen t =
  let n = if rlen > mlen then rlen else mlen in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let ri = if i < rlen then r.(i) else 0 in
    let mi = if i < mlen then m.(i) else 0 in
    let v = ri + (mi * t) + !carry in
    r.(i) <- v land mask;
    carry := v lsr limb_bits
  done;
  let len = ref n in
  if !carry <> 0 then begin
    r.(n) <- !carry;
    incr len
  end;
  while !len > 0 && r.(!len - 1) = 0 do
    decr len
  done;
  !len

let rec zero_below a i = i < 0 || (a.(i) = 0 && zero_below a (i - 1))

(* The bit length of [a - 1] for [a >= 1]: one less than [a]'s own exactly
   when [a] is a power of two (top limb a power of two, every lower limb
   zero). *)
let bit_length_pred a ~len =
  if len = 0 then invalid_arg "Nat.bit_length_pred: zero";
  let top = a.(len - 1) in
  let bits = ((len - 1) * limb_bits) + limb_width top 0 in
  if top land (top - 1) = 0 && zero_below a (len - 2) then bits - 1 else bits

(* --- byte-backed limb views ------------------------------------------

   The flat wire format (Wire.Flat) stores a magnitude as consecutive
   unsigned 32-bit little-endian words, one per 31-bit limb, inside a
   [Bytes.t] packet buffer.  The kernels below operate on that view
   without materialising an [int array]: reads are composed from four
   [Bytes.unsafe_get] byte loads (never [Bytes.get_int32_le], which boxes
   on 64-bit OCaml).  Callers guarantee [pos + 4*limbs <= length b]. *)

let get_u32 b pos =
  Char.code (Bytes.unsafe_get b pos)
  lor (Char.code (Bytes.unsafe_get b (pos + 1)) lsl 8)
  lor (Char.code (Bytes.unsafe_get b (pos + 2)) lsl 16)
  lor (Char.code (Bytes.unsafe_get b (pos + 3)) lsl 24)

let set_u32 b pos v =
  Bytes.unsafe_set b pos (Char.unsafe_chr (v land 0xff));
  Bytes.unsafe_set b (pos + 1) (Char.unsafe_chr ((v lsr 8) land 0xff));
  Bytes.unsafe_set b (pos + 2) (Char.unsafe_chr ((v lsr 16) land 0xff));
  Bytes.unsafe_set b (pos + 3) (Char.unsafe_chr ((v lsr 24) land 0xff))

let blit_bytes a b ~pos =
  let n = Array.length a in
  for i = 0 to n - 1 do
    set_u32 b (pos + (4 * i)) (Array.unsafe_get a i)
  done;
  n

let of_bytes b ~pos ~limbs =
  if limbs < 0 then invalid_arg "Nat.of_bytes: negative limb count";
  normalize (Array.init limbs (fun i -> get_u32 b (pos + (4 * i)) land mask))

(* top-level so the recursion compiles to a static call, not a heap-
   allocated closure — equal_bytes sits on the per-packet fast path *)
let rec equal_bytes_from a b pos i =
  i < 0 || (Array.unsafe_get a i = get_u32 b (pos + (4 * i)) && equal_bytes_from a b pos (i - 1))

let equal_bytes a b ~pos ~limbs =
  Array.length a = limbs && equal_bytes_from a b pos (limbs - 1)

(* Mirror of [rem_int] over the byte view, including the 0/1/2-limb fast
   paths (two limbs fit in 62 bits: one machine division), with its fold
   top-level for the same reason. *)
let rec rem_fold_bytes b pos s bm i r =
  if i < 0 then r
  else rem_fold_bytes b pos s bm (i - 1) (((r * bm) + get_u32 b (pos + (4 * i))) mod s)

let rem_int_bytes b ~pos ~limbs s =
  if s <= 0 || s >= base then
    invalid_arg "Nat.rem_int_bytes: modulus out of range";
  match limbs with
  | 0 -> 0
  | 1 -> get_u32 b pos mod s
  | 2 -> ((get_u32 b (pos + 4) lsl limb_bits) lor get_u32 b pos) mod s
  | len -> rem_fold_bytes b pos s (base mod s) (len - 1) 0

(* Division of a canonical magnitude by a single limb [d]; returns the
   quotient and the remainder limb. *)
let divmod_limb a d =
  let la = Array.length a in
  let q = Array.make la 0 in
  let rem = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!rem lsl limb_bits) lor a.(i) in
    q.(i) <- cur / d;
    rem := cur mod d
  done;
  (normalize q, !rem)

(* Knuth TAOCP vol. 2 Algorithm D.  [a] has at least as many limbs as [b],
   and [b] has >= 2 limbs with a nonzero top limb. *)
let divmod_knuth a b =
  let n = Array.length b in
  (* D1: normalize so that the divisor's top limb has its high bit set. *)
  let rec leading_shift v acc =
    if v land (1 lsl (limb_bits - 1)) <> 0 then acc
    else leading_shift (v lsl 1) (acc + 1)
  in
  let s = leading_shift b.(n - 1) 0 in
  let u0 = shift_left a s and v = shift_left b s in
  let m = Array.length u0 - n in
  (* Working copy of the dividend with one extra top limb. *)
  let u = Array.make (Array.length u0 + 1) 0 in
  Array.blit u0 0 u 0 (Array.length u0);
  let q = Array.make (m + 1) 0 in
  let vtop = v.(n - 1) and vsnd = v.(n - 2) in
  for j = m downto 0 do
    (* D3: estimate the quotient digit. *)
    let num = (u.(j + n) lsl limb_bits) lor u.(j + n - 1) in
    let qhat = ref (num / vtop) and rhat = ref (num mod vtop) in
    let adjust = ref true in
    while !adjust do
      if !qhat >= base
         || !qhat * vsnd > (!rhat lsl limb_bits) lor u.(j + n - 2)
      then begin
        decr qhat;
        rhat := !rhat + vtop;
        if !rhat >= base then adjust := false
      end else adjust := false
    done;
    (* D4: multiply and subtract. *)
    let borrow = ref 0 and carry = ref 0 in
    for i = 0 to n - 1 do
      let p = (!qhat * v.(i)) + !carry in
      carry := p lsr limb_bits;
      let d = u.(i + j) - (p land mask) - !borrow in
      if d < 0 then begin
        u.(i + j) <- d + base;
        borrow := 1
      end else begin
        u.(i + j) <- d;
        borrow := 0
      end
    done;
    let d = u.(j + n) - !carry - !borrow in
    (* D5/D6: if the subtraction went negative, add the divisor back. *)
    if d < 0 then begin
      u.(j + n) <- d + base;
      decr qhat;
      let carry2 = ref 0 in
      for i = 0 to n - 1 do
        let sum = u.(i + j) + v.(i) + !carry2 in
        u.(i + j) <- sum land mask;
        carry2 := sum lsr limb_bits
      done;
      u.(j + n) <- (u.(j + n) + !carry2) land mask
    end else u.(j + n) <- d;
    q.(j) <- !qhat
  done;
  let r = shift_right (normalize (Array.sub u 0 n)) s in
  (normalize q, r)

let divmod a b =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else if Array.length b = 1 then begin
    let q, r = divmod_limb a b.(0) in
    (q, if r = 0 then zero else [| r |])
  end
  else divmod_knuth a b

type t = {
  sign : int; (* -1, 0 or 1; 0 iff mag is empty *)
  mag : int array; (* canonical Nat magnitude *)
}

let mk sign mag =
  if Nat.is_zero mag then { sign = 0; mag = Nat.zero } else { sign; mag }

let zero = { sign = 0; mag = Nat.zero }
let one = { sign = 1; mag = Nat.one }
let two = { sign = 1; mag = [| 2 |] }
let minus_one = { sign = -1; mag = Nat.one }

let of_int n =
  if n = 0 then zero
  else if n > 0 then { sign = 1; mag = Nat.of_int n }
  else if n = min_int then
    (* [-min_int] overflows; build from the magnitude of [min_int + 1]. *)
    { sign = -1; mag = Nat.add (Nat.of_int max_int) Nat.one }
  else { sign = -1; mag = Nat.of_int (-n) }

let min_int_magnitude = Nat.shift_left Nat.one (Sys.int_size - 1)

let to_int_opt a =
  match Nat.to_int_opt a.mag with
  | Some m -> Some (if a.sign < 0 then -m else m)
  | None ->
    (* |min_int| exceeds max_int, so the magnitude alone does not fit; the
       value still does when negative. *)
    if a.sign < 0 && Nat.equal a.mag min_int_magnitude then Some min_int else None

let to_int_exn a =
  match to_int_opt a with
  | Some n -> n
  | None -> failwith "Z.to_int_exn: out of native int range"

let sign a = a.sign
let is_zero a = a.sign = 0
let neg a = mk (-a.sign) a.mag
let abs a = mk (if a.sign = 0 then 0 else 1) a.mag

let add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else if a.sign = b.sign then mk a.sign (Nat.add a.mag b.mag)
  else begin
    let c = Nat.compare a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then mk a.sign (Nat.sub a.mag b.mag)
    else mk b.sign (Nat.sub b.mag a.mag)
  end

let sub a b = add a (neg b)
let mul a b = mk (a.sign * b.sign) (Nat.mul a.mag b.mag)

let divmod a b =
  if b.sign = 0 then raise Division_by_zero;
  let q, r = Nat.divmod a.mag b.mag in
  (mk (a.sign * b.sign) q, mk a.sign r)

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let erem a b =
  let r = rem a b in
  if r.sign >= 0 then r else add r (abs b)

(* Euclidean remainder by a small positive machine int, without going
   through [divmod]: for s < Nat.base this is a single limb fold with no
   allocation at all (the KAR data-plane operation, paper Eq. 1).  Larger
   moduli fall back to the generic [erem]. *)
let rem_int a s =
  if s <= 0 then invalid_arg "Z.rem_int: modulus must be positive";
  if s < Nat.base then begin
    let r = Nat.rem_int a.mag s in
    if a.sign >= 0 || r = 0 then r else s - r
  end
  else
    match to_int_opt (erem a (of_int s)) with
    | Some r -> r
    | None -> assert false (* 0 <= r < s <= max_int *)

(* Byte-backed limb views (Wire.Flat route-ID area): non-negative values
   only, stored as the canonical Nat limbs in LE u32 words. *)

let limb_count a = Array.length a.mag

let blit_limbs a b ~pos =
  if a.sign < 0 then invalid_arg "Z.blit_limbs: negative";
  Nat.blit_bytes a.mag b ~pos

let of_limbs b ~pos ~limbs = mk 1 (Nat.of_bytes b ~pos ~limbs)

let rem_int_bytes b ~pos ~limbs s = Nat.rem_int_bytes b ~pos ~limbs s

let equal_limbs a b ~pos ~limbs =
  a.sign >= 0 && Nat.equal_bytes a.mag b ~pos ~limbs

(* Limb buffers (the in-place kernels of Nat): non-negative values only. *)

let blit_nat a dst =
  let n = Array.length a.mag in
  Array.blit a.mag 0 dst 0 n;
  n

let of_nat a ~len = mk 1 (Nat.normalize (Array.sub a 0 len))

let compare a b =
  if a.sign <> b.sign then Stdlib.compare a.sign b.sign
  else if a.sign >= 0 then Nat.compare a.mag b.mag
  else Nat.compare b.mag a.mag

let equal a b = compare a b = 0
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let shift_left a k =
  if a.sign < 0 then invalid_arg "Z.shift_left: negative";
  mk a.sign (Nat.shift_left a.mag k)

let shift_right a k =
  if a.sign < 0 then invalid_arg "Z.shift_right: negative";
  mk a.sign (Nat.shift_right a.mag k)

let bit_length a = Nat.bit_length a.mag

let bit_length_pred a =
  if a.sign <= 0 then invalid_arg "Z.bit_length_pred: not positive";
  Nat.bit_length_pred a.mag ~len:(Array.length a.mag)

let pow b k =
  if k < 0 then invalid_arg "Z.pow: negative exponent";
  let rec go acc b k =
    if k = 0 then acc
    else begin
      let acc = if k land 1 = 1 then mul acc b else acc in
      go acc (mul b b) (k lsr 1)
    end
  in
  go one b k

(* Decimal I/O goes through chunks of 10^9 (which fits in one limb). *)
let decimal_chunk = 1_000_000_000
let decimal_chunk_digits = 9

let to_string a =
  if a.sign = 0 then "0"
  else begin
    let buf = Buffer.create 32 in
    let rec chunks mag acc =
      if Nat.is_zero mag then acc
      else begin
        let q, r = Nat.divmod mag [| decimal_chunk |] in
        let r = match Nat.to_int_opt r with Some n -> n | None -> assert false in
        chunks q (r :: acc)
      end
    in
    (match chunks a.mag [] with
     | [] -> assert false
     | first :: rest ->
       if a.sign < 0 then Buffer.add_char buf '-';
       Buffer.add_string buf (string_of_int first);
       List.iter
         (fun c -> Buffer.add_string buf (Printf.sprintf "%0*d" decimal_chunk_digits c))
         rest);
    Buffer.contents buf
  end

let of_string s =
  let len = String.length s in
  if len = 0 then invalid_arg "Z.of_string: empty string";
  let negative, start =
    match s.[0] with
    | '-' -> (true, 1)
    | '+' -> (false, 1)
    | _ -> (false, 0)
  in
  if start >= len then invalid_arg "Z.of_string: no digits";
  let hex = len - start > 2 && s.[start] = '0' && (s.[start + 1] = 'x' || s.[start + 1] = 'X') in
  let digit_start = if hex then start + 2 else start in
  if digit_start >= len then invalid_arg "Z.of_string: no digits";
  let radix = if hex then of_int 16 else of_int 10 in
  let value = ref zero in
  for i = digit_start to len - 1 do
    let c = s.[i] in
    if c <> '_' then begin
      let d =
        match c with
        | '0' .. '9' -> Char.code c - Char.code '0'
        | 'a' .. 'f' when hex -> 10 + Char.code c - Char.code 'a'
        | 'A' .. 'F' when hex -> 10 + Char.code c - Char.code 'A'
        | _ -> invalid_arg (Printf.sprintf "Z.of_string: bad character %C" c)
      in
      value := add (mul !value radix) (of_int d)
    end
  done;
  if negative then neg !value else !value

let pp ppf a = Format.pp_print_string ppf (to_string a)
let ( ~$ ) = of_int
let ( + ) = add
let ( - ) = sub
let ( * ) = mul
let ( / ) = div
let ( mod ) = rem
let product l = List.fold_left mul one l

let hash a =
  let step acc limb = Stdlib.( + ) (Stdlib.( * ) acc 1_000_003) limb in
  Array.fold_left step a.sign a.mag

(* The SplitMix64 state lives in an 8-byte buffer read and written through
   the unboxed 64-bit primitives, so stepping it allocates nothing; with
   [step] and [mix] inlined, a draw that stays inside this module never
   boxes an [int64]. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create seed =
  let g = Bytes.create 8 in
  set64 g 0 seed;
  g

let of_int seed = create (Int64.of_int seed)

let[@inline] step g =
  let s = Int64.add (get64 g 0) golden_gamma in
  set64 g 0 s;
  mix s

let next g = step g

let split g =
  let seed = step g in
  create (mix (Int64.add seed 0x8E38C9A939FF7CB1L))

let split_n g n =
  if n < 0 then invalid_arg "Prng.split_n: n must be >= 0";
  if n = 0 then [||]
  else begin
    (* Explicit ascending loop: the parent must advance exactly as [n]
       successive [split]s would, independent of evaluation-order
       subtleties. *)
    let a = Array.make n (split g) in
    for i = 1 to n - 1 do
      a.(i) <- split g
    done;
    a
  end

(* The smallest all-ones mask covering [v]. *)
let rec mask_above m v = if m >= v then m else mask_above ((m * 2) + 1) v

(* Rejection sampling under mask [m] avoids modulo bias; bounds are tiny in
   practice, so the loop terminates almost immediately. *)
let rec draw_below g m bound =
  let v = Int64.to_int (Int64.logand (step g) 0x7FFFFFFFFFFFFFFFL) land m in
  if v < bound then v else draw_below g m bound

let int g bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  if bound = 1 then 0 else draw_below g (mask_above 1 (bound - 1)) bound

let[@inline] float g =
  let bits = Int64.shift_right_logical (step g) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let exponential g ~mean =
  let u = float g in
  (* Guard against log 0. *)
  let u = if u <= 0.0 then 1e-12 else u in
  -.mean *. log u

let choice g arr =
  if Array.length arr = 0 then invalid_arg "Prng.choice: empty array";
  arr.(int g (Array.length arr))

let choice_list g l =
  match l with
  | [] -> invalid_arg "Prng.choice_list: empty list"
  | _ -> List.nth l (int g (List.length l))

let shuffle g arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

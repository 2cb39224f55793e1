(** Arbitrary-precision signed integers.

    This is the arithmetic substrate for KAR route identifiers: a protected
    route ID is bounded by the product of all switch IDs folded into it
    (Eq. 1 of the paper), which exceeds the native [int] range as soon as a
    handful of protection switches are added (Table 1 reports 43 bits for
    ten switches; larger deployments go past 63 bits).

    Values are immutable.  The API mirrors the part of [zarith] the rest of
    the repository needs, so the library can be swapped out transparently in
    environments where [zarith] is available. *)

type t

val zero : t
val one : t
val two : t
val minus_one : t

(** [of_int n] converts a native integer exactly. *)
val of_int : int -> t

(** [to_int_opt a] is [Some n] iff [a] fits in a native [int]. *)
val to_int_opt : t -> int option

(** [to_int_exn a] converts, raising [Failure] when out of range. *)
val to_int_exn : t -> int

(** [sign a] is [-1], [0] or [1]. *)
val sign : t -> int

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

(** [divmod a b] is truncated division: [(q, r)] with [a = q*b + r],
    [|r| < |b|] and [r] carrying the sign of [a] (OCaml's [/] and [mod]
    convention).
    @raise Division_by_zero if [b = zero]. *)
val divmod : t -> t -> t * t

val div : t -> t -> t

(** [rem a b] is the remainder of truncated division. *)
val rem : t -> t -> t

(** [erem a b] is the Euclidean remainder: always in [\[0, |b|)].  This is
    the [<a>_b] operation of the paper (Eq. 5). *)
val erem : t -> t -> t

(** [rem_int a s] is [to_int_exn (erem a (of_int s))] computed without the
    quotient: for [s < 2^31] it folds the limbs of [a] with a precomputed
    [2^31 mod s] in machine-int arithmetic and allocates nothing.  This is
    the per-packet forwarding kernel ([<R>_s], Eq. 1) and the reduction in
    each step of the route-ID fold ([Rns.encode]).  Requires [s > 0]. *)
val rem_int : t -> int -> int

(** {2 Byte-backed limb views}

    Mirrors of the {!Bignum.Nat} byte-view kernels for non-negative values:
    the route-ID area of a [Wire.Flat] packet buffer stores the canonical
    limbs as little-endian unsigned 32-bit words.  All four functions are
    allocation-free except {!of_limbs} (a boundary materialisation). *)

(** [limb_count a] is the number of 31-bit limbs in [|a|] (0 for zero). *)
val limb_count : t -> int

(** [blit_limbs a b ~pos] writes the limbs of [a] at byte offset [pos],
    returning the limb count.
    @raise Invalid_argument when [a < 0]. *)
val blit_limbs : t -> Bytes.t -> pos:int -> int

(** [of_limbs b ~pos ~limbs] materialises the (non-negative) value. *)
val of_limbs : Bytes.t -> pos:int -> limbs:int -> t

(** [rem_int_bytes b ~pos ~limbs s] is the forwarding kernel [<R>_s]
    directly over the byte view; equals [rem_int (of_limbs b ...) s].
    @raise Invalid_argument when [s] is outside [\[1, 2^31)]. *)
val rem_int_bytes : Bytes.t -> pos:int -> limbs:int -> int -> int

(** [equal_limbs a b ~pos ~limbs] compares without materialising; [false]
    for negative [a]. *)
val equal_limbs : t -> Bytes.t -> pos:int -> limbs:int -> bool

(** {2 Limb buffers}

    Conversions to and from the {!Bignum.Nat} limb buffers that in-place
    kernels grow (the CRT accumulator of [Rns]). *)

(** [blit_nat a dst] copies the limbs of [|a|] to the start of [dst] and
    returns their count; [dst] has room for {!limb_count}[ a] limbs. *)
val blit_nat : t -> int array -> int

(** [of_nat a ~len] is the non-negative value whose limbs are
    [a.(0 .. len-1)], least significant first (copied). *)
val of_nat : int array -> len:int -> t

val compare : t -> t -> int
val equal : t -> t -> bool
val min : t -> t -> t
val max : t -> t -> t
val is_zero : t -> bool

(** [shift_left a k] is [a * 2^k] ([a >= 0] required). *)
val shift_left : t -> int -> t

(** [shift_right a k] is [a / 2^k] (floor; [a >= 0] required). *)
val shift_right : t -> int -> t

(** [bit_length a] is the bit length of [|a|]; [bit_length zero = 0]. *)
val bit_length : t -> int

(** [bit_length_pred a] is [bit_length (a - 1)] for [a >= 1], read off
    [a]'s limbs without computing [a - 1].
    @raise Invalid_argument when [a < 1]. *)
val bit_length_pred : t -> int

(** [pow b k] is [b^k] for [k >= 0]. *)
val pow : t -> int -> t

(** Decimal rendering, with a leading ['-'] for negatives. *)
val to_string : t -> string

(** [of_string s] parses an optionally signed decimal string, or a
    hexadecimal one with a ["0x"] prefix.
    @raise Invalid_argument on malformed input. *)
val of_string : string -> t

val pp : Format.formatter -> t -> unit

(** Infix and literal-friendly shortcuts: [Z.(~$3 * route + ~$1)]. *)
val ( ~$ ) : int -> t

val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> t -> t
val ( / ) : t -> t -> t
val ( mod ) : t -> t -> t

(** Product of a list, [one] for the empty list (Eq. 1, the modulus [M]). *)
val product : t list -> t

val hash : t -> int

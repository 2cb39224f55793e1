(** Low-level arbitrary-precision natural-number arithmetic.

    A natural number is stored as an [int array] of limbs in little-endian
    order, base [2^31].  The canonical form has no trailing zero limbs; zero
    is the empty array.  All functions expect canonical inputs and produce
    canonical outputs.  This module is the magnitude engine underneath
    {!Bignum.Z}; most users should use {!Bignum.Z} instead. *)

(** Number of value bits per limb (31). *)
val limb_bits : int

(** The limb base, [2^31]. *)
val base : int

(** The canonical representation of zero (the empty array). *)
val zero : int array

(** The canonical representation of one. *)
val one : int array

(** [is_zero a] is [true] iff [a] represents zero. *)
val is_zero : int array -> bool

(** [is_canonical a] checks limb bounds and the absence of trailing zeros.
    Intended for assertions and tests. *)
val is_canonical : int array -> bool

(** [normalize a] strips trailing zero limbs (returns a fresh array unless
    already canonical). *)
val normalize : int array -> int array

(** [of_int n] converts a non-negative native integer.
    @raise Invalid_argument if [n < 0]. *)
val of_int : int -> int array

(** [to_int_opt a] is [Some n] when [a] fits in a native [int]. *)
val to_int_opt : int array -> int option

(** Total order consistent with numeric value. *)
val compare : int array -> int array -> int

val equal : int array -> int array -> bool

(** [add a b] is [a + b]. *)
val add : int array -> int array -> int array

(** [sub a b] is [a - b].
    @raise Invalid_argument if [a < b]. *)
val sub : int array -> int array -> int array

(** [mul a b] is [a * b] (schoolbook: route IDs stay far below the
    operand sizes where a subquadratic product would pay). *)
val mul : int array -> int array -> int array

(** [divmod a b] is [(q, r)] with [a = q*b + r] and [0 <= r < b]
    (Knuth Algorithm D).
    @raise Division_by_zero if [b] is zero. *)
val divmod : int array -> int array -> int array * int array

(** [rem_int a s] is [a mod s] for a machine-int modulus [1 <= s < base],
    folding the limbs high-to-low with a precomputed [base mod s].  Unlike
    {!divmod} it builds no quotient and allocates nothing at any width
    (the fold is a top-level tail recursion, not a closure) — this is the
    data-plane kernel behind [Rns.port].
    @raise Invalid_argument when [s] is outside [\[1, base)]. *)
val rem_int : int array -> int -> int

(** [rem_int_prefix a ~len s] is {!rem_int} of the magnitude in
    [a.(0 .. len-1)] (a limb buffer, below); [rem_int a] is
    [rem_int_prefix a ~len:(Array.length a)].
    @raise Invalid_argument when [s] is outside [\[1, base)] or [len]
    outside [\[0, Array.length a\]]. *)
val rem_int_prefix : int array -> len:int -> int -> int

(** {2 In-place kernels over a limb buffer}

    A buffer is an [int array] whose first [len] limbs hold a canonical
    magnitude (top limb nonzero, or [len = 0]); the limbs past [len] are
    scratch.  These kernels read and write buffers in place and allocate
    nothing; the caller guarantees the room each one states. *)

(** [mul_int_into a ~len s dst] writes [a * s] for [0 <= s < base] to
    [dst] (which may be [a]) and returns its length, [len] or [len + 1];
    [dst] has room for [len + 1] limbs.  A zero [s] leaves zero limbs:
    callers pass [s >= 1]. *)
val mul_int_into : int array -> len:int -> int -> int array -> int

(** [add_mul_int_into r ~rlen m ~mlen t] adds [m * t] for [0 <= t < base]
    to the magnitude in [r] in place and returns its new length; [r] has
    room for [max rlen mlen + 1] limbs. *)
val add_mul_int_into : int array -> rlen:int -> int array -> mlen:int -> int -> int

(** [bit_length_pred a ~len] is the bit length of [a - 1] for the nonzero
    magnitude in [a.(0 .. len-1)]: the number of bits any value in
    [\[0, a)] needs (paper Eq. 9).
    @raise Invalid_argument when [len = 0]. *)
val bit_length_pred : int array -> len:int -> int

(** {2 Byte-backed limb views}

    A magnitude can be stored inside a [Bytes.t] buffer as consecutive
    little-endian unsigned 32-bit words, one per 31-bit limb (the layout of
    the route-ID area in [Wire.Flat]).  The functions below read and write
    that view without materialising an [int array] and without boxing; the
    caller guarantees [pos + 4*limbs <= Bytes.length b]. *)

(** [blit_bytes a b ~pos] writes the limbs of [a] at byte offset [pos] and
    returns the limb count written.  The view is canonical iff [a] is. *)
val blit_bytes : int array -> Bytes.t -> pos:int -> int

(** [of_bytes b ~pos ~limbs] materialises a canonical magnitude from the
    view (normalising, and masking each word to 31 bits). *)
val of_bytes : Bytes.t -> pos:int -> limbs:int -> int array

(** [equal_bytes a b ~pos ~limbs] compares a canonical magnitude against a
    canonical byte view without allocating. *)
val equal_bytes : int array -> Bytes.t -> pos:int -> limbs:int -> bool

(** [rem_int_bytes b ~pos ~limbs s] is {!rem_int} over the byte view:
    the same high-to-low fold with precomputed [base mod s], the same
    0/1/2-limb fast paths, zero allocation.
    @raise Invalid_argument when [s] is outside [\[1, base)]. *)
val rem_int_bytes : Bytes.t -> pos:int -> limbs:int -> int -> int

(** [shift_left a k] is [a * 2^k].  [k >= 0]. *)
val shift_left : int array -> int -> int array

(** [shift_right a k] is [a / 2^k] (floor).  [k >= 0]. *)
val shift_right : int array -> int -> int array

(** [bit_length a] is the position of the highest set bit plus one;
    [bit_length zero = 0]. *)
val bit_length : int array -> int

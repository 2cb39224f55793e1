(** Residue Number System encoding for KAR route identifiers.

    A KAR route is the pair of a modulus set [S = {s_1, ..., s_N}] (the
    pairwise-coprime switch IDs on the desired path, plus any protection
    switches) and a residue set [P = {p_1, ..., p_N}] (the output-port index
    each of those switches must use).  The route ID is the unique
    [R in [0, M)], [M = prod s_i], with [R mod s_i = p_i] — reconstructed by
    the Chinese Remainder Theorem (paper Eq. 4-8), one residue at a time.

    Switch IDs and ports are small native integers in this API (switch IDs
    in [\[2, 2^31)]); route IDs are {!Bignum.Z.t} since [M] grows with the
    number of protected switches. *)

module Z = Bignum.Z

type residue = {
  modulus : int; (* switch ID, pairwise coprime with the others *)
  value : int; (* output port index, 0 <= value < modulus *)
}

type error =
  | Not_pairwise_coprime of int * int (* the offending pair *)
  | Residue_out_of_range of residue
  | Nonpositive_modulus of int (* a switch ID [<= 1] *)
  | Modulus_too_large of int (* a switch ID [>= 2^31] *)
  | Empty_system

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

(** [coprime a b] is [true] iff [gcd a b = 1]. *)
val coprime : int -> int -> bool

(** [pairwise_coprime ids] is [Ok ()] or the first offending pair.  O(n^2)
    gcds; {!encode} runs it only once a fold has already failed. *)
val pairwise_coprime : int list -> (unit, error) result

(** [modulus_product ids] is [M = prod ids] (Eq. 1). *)
val modulus_product : int list -> Z.t

(** The CRT accumulator: the state [(R, M)] of the residues folded so far
    ([R < M], [M] their modulus product), kept in {!Bignum.Nat} limb
    buffers that grow in place.  Folding a residue [(s, p)] reduces [M]
    and [R] by [s] with limb folds, then, when [s] is coprime with [M],
    makes [R' = R + M*t], [t = (p - R mod s) * (M mod s)^-1 mod s], and
    [M' = M*s] with carries, allocating nothing.  [M mod s] is reduced once
    and one extended-Euclid pass over it gives both the gcd that decides
    coprimality and the inverse, so a fold costs one gcd however many
    residues came before.  This is the one CRT: {!encode} and the
    protection fold ([Route.protect_skipping]) both run it and build
    their {!Z.t} results once, at the end.  An accumulator belongs to one
    caller: make one per encoding. *)
module Acc : sig
  type t

  (** [create route_id modulus] starts from [(R, M) = (route_id, modulus)],
      which must satisfy [0 <= R < M] with [M] the product of the moduli
      [R] solves ([(zero, one)] for an empty system). *)
  val create : Z.t -> Z.t -> t

  (** [add ?max_bits acc res] folds [res] in and is [true], or is [false]
      and leaves [acc] untouched when [res]'s modulus shares a factor with
      [M] (with some modulus already folded in) or when the grown
      modulus's Eq. 9 bound ({!bit_length_bound}) would exceed [max_bits]
      (default: no limit).
      @raise Invalid_argument when [res] fails {!encode}'s range checks. *)
  val add : ?max_bits:int -> t -> residue -> bool

  (** [route_id acc] and [modulus acc] are [R] and [M] as fresh values. *)
  val route_id : t -> Z.t

  val modulus : t -> Z.t

  (** [bits acc] is [bit_length_bound M], kept up to date by {!add}. *)
  val bits : t -> int
end

(** [encode residues] is [Ok (route_id, m)] where [route_id] is the CRT
    reconstruction (Eq. 4) and [m] the modulus product, or an [error] when
    the system is invalid.  It runs the range checks over the whole list
    (in list order: [Nonpositive_modulus], [Modulus_too_large],
    [Residue_out_of_range]), then folds them into an {!Acc} left to right
    from [(R, M) = (0, 1)], so a valid system of n residues costs n gcds.
    At the first fold that finds a shared factor it runs {!pairwise_coprime}
    to name the first offending pair in list order.  [R] is unique below
    [M], so the result equals Eq. 4's sum and does not depend on the order
    of [residues]. *)
val encode : residue list -> (Z.t * Z.t, error) result

(** [encode_exn residues] is [encode], raising [Invalid_argument] with the
    rendered error. *)
val encode_exn : residue list -> Z.t * Z.t

(** [decode route_id ids] extracts the output port at each switch:
    [R mod s_i] (Eq. 3, the data-plane operation). *)
val decode : Z.t -> int list -> int list

(** [port route_id switch_id] is the single-switch forwarding computation
    [<R>_s], by the remainder-only kernel {!Bignum.Z.rem_int} (no quotient,
    no allocation).  This is all a KAR core switch ever evaluates.
    @raise Invalid_argument when [switch_id <= 0]. *)
val port : Z.t -> int -> int

(** [bit_length_bound m] is the number of bits needed to store any route ID
    in [\[0, m)] — the paper's Eq. 9 bound on the field width.  (Eq. 9's
    literal [ceil (log2 (m - 1))] under-counts by one exactly when [m - 1]
    is a power of two, since the ID can be [m - 1] itself; all Table 1
    values agree under both readings.)  0 for [m <= 1]. *)
val bit_length_bound : Z.t -> int

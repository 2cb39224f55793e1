(** Deterministic pseudo-random number generation (SplitMix64).

    Every randomized component in the repository (deflection choices,
    topology generators, workload jitter) draws from an explicit [t] so that
    experiments are reproducible from a seed; no global or wall-clock state
    is used anywhere. *)

type t

(** [create seed] makes an independent stream from a 64-bit seed. *)
val create : int64 -> t

(** [of_int seed] is [create] from a native int. *)
val of_int : int -> t

(** [split g] derives a statistically independent child stream, advancing
    [g].  Used to give each simulated switch its own stream. *)
val split : t -> t

(** [split_n g n] derives [n] independent child streams, advancing [g]
    exactly as [n] successive {!split}s would.  Used to pre-derive one
    stream per unit of parallel work {e before} dispatch to a
    {!Pool}, so results are independent of execution order. *)
val split_n : t -> int -> t array

(** [next g] is the next raw 64-bit output. *)
val next : t -> int64

(** [int g bound] is uniform in [\[0, bound)].  [bound > 0]. *)
val int : t -> int -> int

(** [float g] is uniform in [\[0, 1)]. *)
val float : t -> float

(** [exponential g ~mean] samples an exponential duration. *)
val exponential : t -> mean:float -> float

(** [choice g arr] picks a uniform element.
    @raise Invalid_argument on an empty array. *)
val choice : t -> 'a array -> 'a

(** [choice_list g l] picks a uniform element of a non-empty list. *)
val choice_list : t -> 'a list -> 'a

(** [shuffle g arr] permutes [arr] in place (Fisher-Yates). *)
val shuffle : t -> 'a array -> unit

(** Bounded LRU plan cache with epoch-based invalidation.

    Keys are ints: the serving layer packs [(src, dst, level, policy)] into
    one ({!Server} owns that format), so the cache is generic only in its
    values.  A hit allocates nothing: {!lookup} returns the entry's slot,
    an int, and {!value} reads the slot's value.

    {b Epochs.} The cache carries a topology-version counter.  A link
    failure or repair bumps it ({!bump_epoch}) in O(1); every entry remembers
    the epoch it was inserted under, and a lookup that finds an entry from an
    older epoch answers {!lookup_stale}: the entry is dropped on the spot
    and the caller must replan.  Invalidation is therefore {e lazy} —
    nothing is scanned at bump time — but no stale route is ever served,
    which is what turns a failure into a measurable replan storm instead of
    silent wrong answers. *)

type 'v t

(** [create ?registry ~capacity ()] with [capacity >= 1].  Counters
    register on [registry] (a fresh private registry when omitted) as
    [svc/cache-hit]/[svc/cache-miss]/[svc/cache-stale]/[svc/cache-evict],
    plus a [svc/cache-epoch] gauge and a [svc/cache-size] occupancy
    probe.  Memory grows with the entries resident, not with [capacity]. *)
val create : ?registry:Kar_obs.Registry.t -> capacity:int -> unit -> 'v t

val capacity : 'v t -> int
val epoch : 'v t -> int

(** Invalidate every resident entry, O(1). *)
val bump_epoch : 'v t -> unit

(** What {!lookup} returns for a key with no entry (never present, or
    evicted). *)
val lookup_miss : int

(** What {!lookup} returns for a key whose entry is from an older epoch;
    that lookup dropped the entry. *)
val lookup_stale : int

(** [lookup t k] classifies and counts.  On a hit it returns the entry's
    slot, [>= 0], and refreshes the entry's LRU position; otherwise
    {!lookup_miss} or {!lookup_stale}.  Allocates nothing. *)
val lookup : 'v t -> int -> int

(** [value t slot] is the value in the slot a hit returned; valid until
    the next {!put} or {!lookup}. *)
val value : 'v t -> int -> 'v

(** [put t k v] inserts (or refreshes) [k] at the current epoch and evicts
    from the least-recently-used end while over capacity. *)
val put : 'v t -> int -> 'v -> unit

(** Lookups answered from a current-epoch entry. *)
val hits : 'v t -> int

(** Cold misses: key never present (or evicted). *)
val misses : 'v t -> int

(** Misses caused by epoch invalidation. *)
val stale : 'v t -> int

(** Capacity evictions, not stale drops. *)
val evictions : 'v t -> int

(** Current entries, stale residents included. *)
val size : 'v t -> int

(** [hits / (hits + misses + stale)]; 0 before any lookup. *)
val hit_ratio : 'v t -> float

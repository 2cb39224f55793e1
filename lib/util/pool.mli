(** Fixed-size domain pool: the repository's one parallel runtime.

    Every sweep in the evaluation (replications, failure pairs, sampled
    failure sets, generated graphs, ablation scenarios), the service
    batcher, the verifier and each epoch of a sharded network simulation
    ([Netsim.Net.run_until], one task per region) is a map over an array
    of independent units of work.  [map] runs such an array on a fixed
    set of OCaml 5 domains while preserving three properties its callers
    depend on:

    - {b order}: the result array matches the input array index for
      index, whatever order tasks actually executed in;
    - {b determinism}: tasks receive only their index and element; any
      randomness must come from a per-task {!Prng} stream derived {e
      before} dispatch (see {!Prng.split_n}), so output is byte-identical
      at any pool size;
    - {b failure transparency}: a raising task aborts the map with
      {!Task_failed} carrying the task's index and original exception,
      and the pool remains usable afterwards.

    Tasks are claimed one at a time from a shared atomic counter (the
    idle domains steal whatever work remains), so uneven task costs
    balance automatically.  A pool of [jobs = 1] spawns no domains and
    [map] degenerates to a plain serial loop.  Calling [map] from inside
    a task (nested parallelism) is detected and falls back to the serial
    loop rather than deadlocking. *)

type t

(** Raised by {!map} when a task raised: [index] is the position of the
    failing element, [exn] the original exception.  At most one failure
    is reported (the first one recorded); remaining unclaimed tasks are
    skipped. *)
exception Task_failed of { index : int; exn : exn }

(** [create ~jobs] spawns [jobs - 1] worker domains (the caller of
    {!map} is the [jobs]-th worker).  [jobs >= 1]. *)
val create : jobs:int -> t

(** Parallelism of the pool, including the calling domain. *)
val jobs : t -> int

(** [map t input ~f] is [[| f ~idx:0 input.(0); ... |]], computed on the
    pool's domains.  [f] must not depend on shared mutable state.
    @raise Task_failed if any task raises. *)
val map : t -> 'a array -> f:(idx:int -> 'a -> 'b) -> 'b array

(** Terminates and joins the worker domains.  Idempotent.  Must not run
    concurrently with a [map] on the same pool.  A subsequent [map] on a
    shut-down pool runs serially on the caller. *)
val shutdown : t -> unit

(** {1 The shared pool}

    The experiment layer runs on one process-wide pool so a single
    [-j]/[KAR_JOBS] setting governs the whole evaluation. *)

(** [KAR_JOBS] when set to a positive integer, otherwise
    [Domain.recommended_domain_count ()]; capped at 16. *)
val default_jobs : unit -> int

(** [set_jobs n] replaces the shared pool with one of [n] jobs (clamped
    to [1..16]).  Called once at startup by the CLI [-j] flag; must not
    race a [run] in flight. *)
val set_jobs : int -> unit

(** Parallelism of the shared pool ({!default_jobs} if none exists yet). *)
val current_jobs : unit -> int

(** [run input ~f] is {!map} on the shared pool, creating it on first
    use (workers are joined at exit). *)
val run : 'a array -> f:(idx:int -> 'a -> 'b) -> 'b array

(** Monte-Carlo simulation of single-packet deflection walks.

    Queue-free and time-free: only the forwarding decisions are exercised,
    which makes it cheap enough to estimate delivery probabilities and
    hop-count distributions over thousands of trials, and to cross-check
    the exact {!Markov} analysis.  The packet-level simulator ({!Netsim})
    is the heavyweight counterpart that adds queues, rates and TCP. *)

module Graph = Topo.Graph

type outcome =
  | Delivered of int (** switch hops taken to reach the destination edge *)
  | Stranded of Graph.node * int
      (** reached a foreign edge node (would be re-encoded) after [hops] *)
  | Dropped of int (** forwarding decision was Drop after [hops] *)
  | Ttl_exceeded

type result = {
  trials : int;
  delivered : int;
  stranded : int;
  dropped : int;
  ttl_exceeded : int;
  mean_hops : float; (** over delivered walks; [nan] if none delivered *)
  max_hops : int; (** over delivered walks *)
  p_delivery : float;
}

(** [switch_rngs g ~seed] is an independent PRNG stream per core switch,
    split from [seed] in the same order as
    [Netsim.Karnet.install_switches] — pass it as [?rng_for] to make a walk
    consume the exact random draws a netsim run with the same seed would. *)
val switch_rngs : Graph.t -> seed:int -> Graph.node -> Util.Prng.t

(** [walk g ~plan ~policy ~failed ~src ~dst ~ttl rng] runs one packet from
    edge [src] toward edge [dst] with the plan's route ID, treating links
    in [failed] as down.

    [?recorder] attaches a flight recorder: the walk emits the same
    {!Trace.Event.t} stream as the packet-level simulator (with hop index
    as virtual time and [uid], default 0, as the packet id), which is what
    the differential Walk↔Netsim tests diff.  [?rng_for] overrides the
    single [rng] with a per-switch stream lookup (see {!switch_rngs}). *)
val walk :
  Graph.t ->
  plan:Route.plan ->
  policy:Policy.t ->
  failed:Graph.link_id list ->
  src:Graph.node ->
  dst:Graph.node ->
  ttl:int ->
  ?recorder:Trace.Recorder.t ->
  ?uid:int ->
  ?rng_for:(Graph.node -> Util.Prng.t) ->
  Util.Prng.t ->
  outcome

(** [run g ~plan ~policy ~failed ~src ~dst ~trials ~seed] aggregates
    [trials] independent walks of {!Policy.ttl} hops at most. *)
val run :
  Graph.t ->
  plan:Route.plan ->
  policy:Policy.t ->
  failed:Graph.link_id list ->
  src:Graph.node ->
  dst:Graph.node ->
  trials:int ->
  seed:int ->
  result

(** [hop_histogram g ~plan ~policy ~failed ~src ~dst ~trials ~seed] is
    the hop-count histogram of delivered walks (index = hops). *)
val hop_histogram :
  Graph.t ->
  plan:Route.plan ->
  policy:Policy.t ->
  failed:Graph.link_id list ->
  src:Graph.node ->
  dst:Graph.node ->
  trials:int ->
  seed:int ->
  int array

(** Scenario generation: compile a {!Spec.t} against a topology into a
    canonical {!Event.t} stream.

    Generation is pure and deterministic — every random draw comes from
    {!Util.Prng} streams split from the spec's seed, and the adversarial
    model is a deterministic greedy computation — so the same
    [(graph, spec, horizon, pairs)] always yields byte-identical streams
    at any [-j], before the stream ever reaches an engine.

    Each model first produces per-link {e down-windows}, then the window
    sets are interval-unioned per link, so the emitted stream is always
    well-formed: per link, strictly alternating fail/repair, no
    same-instant churn.

    The adversarial model tracks [pairs] (default: every ordered
    edge-node pair by ascending labels, capped at 8): each decision
    round it replans every tracked pair on the surviving topology at the
    spec's protection level with {!Kar.Controller.protected_route}, the
    plan server's planner, counts how many plan residues (primary path
    and protection tree alike) cross each link, and greedily fails the
    highest-scoring links — ties broken by link id — subject to two
    invariants: at most [k] links down at once, and every tracked pair
    stays connected (so delivery loss measures transient damage, not
    partition). *)

module Graph = Topo.Graph

(** [generate g ~horizon ?pairs spec] — events strictly before
    [horizon]; a window still open at the horizon emits no repair.
    [pairs] only affects the adversarial model. *)
val generate :
  Graph.t ->
  horizon:float ->
  ?pairs:(Graph.node * Graph.node) list ->
  Spec.t ->
  (Event.t list, string) result

(** The links a plan depends on: one link per residue — the port each
    switch (on the primary path or in a protection tree) forwards or
    deflects toward.  Exposed as the adversarial dependency oracle, for
    tests. *)
val plan_links : Graph.t -> Kar.Route.plan -> Graph.link_id list

(** [compile g ~horizon ?pairs ~explicit scenario] is the one stream a
    binary arms: the [explicit] events (what its repeatable failure flags
    compile to — the same triples as {!Spec.Events}) merged with the
    [scenario] generated over [horizon], normalized.  [Error] carries the
    generator's message, e.g. for an explicit link that is not in [g]. *)
val compile :
  Graph.t ->
  horizon:float ->
  ?pairs:(Graph.node * Graph.node) list ->
  explicit:(float * Event.action * Spec.link_ref) list ->
  Spec.t option ->
  (Event.t list, string) result

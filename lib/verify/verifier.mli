(** Exhaustive k-failure resilience verification.

    Given a plan and a concrete failure set F, the verifier decides — not
    samples — what can happen to a packet from [src] to [dst]: it
    explores a finite-state reachability problem whose state is (current
    plan, core switch, input port, deflected flag), evaluating
    {!Kar.Policy.choose} at each state and treating every deflection draw
    as a {e universal} choice over its candidate mask (the adversarial
    reading of Chiesa et al.).  No per-switch table is materialised.  Edge
    behaviour mirrors Karnet exactly: landing on the destination edge
    delivers; landing on a foreign edge re-encodes (an unprotected
    shortest-path plan on the failure-free graph, deflected flag cleared)
    or drops when no path exists.

    The verdict is the meet of all resolutions of the choices:

    - {!Guaranteed}: every resolution delivers within the TTL;
    - {!Policy_dependent}: some resolution delivers, some drops or loops
      — delivery hinges on how the deflection draws land;
    - {!Loop}: no resolution delivers and some resolution cycles (dying
      of TTL in the real engine);
    - {!Blackhole}: no resolution delivers, every resolution drops;
    - {!Disconnected}: F physically cuts [src] from [dst] — no routing
      scheme could deliver, so the set is excluded from the resilience
      comparison (the Chiesa et al. ideal-resilience yardstick).

    Adversarial guarantee is strictly stronger than empirical delivery:
    a {!Policy_dependent} pair can deliver every packet of a randomized
    simulation (an unlucky infinite draw sequence has probability zero)
    while still admitting a finite refutation.  The k=1 agreement test in
    test_verify is therefore directional, not an equivalence.

    Cost: {!prepare} flattens the graph into int arrays once per
    instance, with a dense index of [plans x ports x 2] state slots.  A
    {!verify} call then costs time linear in the states it explores,
    their successors and the size of the graph: one breadth-first
    exploration, linear passes for the outcome fields (successor scans,
    and one Kahn pass for the cycle and the longest run) and a
    breadth-first connectivity check.  Its working memory belongs to the
    calling domain, grows to the largest instance that domain has seen
    and is reused across calls, so a warmed-up call allocates only its
    result.  One instance is therefore safe to share between the domains
    of a sweep. *)

module Graph = Topo.Graph

(** What the resolutions of the deflection choices can do, before the
    verdict collapses them. *)
type outcome = {
  can_deliver : bool;  (** some resolution delivers within the TTL *)
  can_drop : bool;  (** some resolution hits a dead end and drops *)
  can_loop : bool;
      (** some resolution cycles, or runs longer than the TTL *)
  states : int;  (** explored (plan, switch, in-port, deflected) states *)
  min_deliver_hops : int;  (** shortest delivering run, -1 when none *)
}

type classification =
  | Guaranteed
  | Policy_dependent
  | Loop
  | Blackhole
  | Disconnected

val classification_to_string : classification -> string
val all_classifications : classification list

(** The graph flattened for the exploration. *)
type flat

(** A prepared verification instance for one (src, dst) pair: the
    primary plan at index 0 plus one re-encode plan per edge node that can
    reach [dst], shared across all failure sets. *)
type instance = {
  graph : Graph.t;
  src : Graph.node;
  dst : Graph.node;
  policy : Kar.Policy.t;
  plan : Kar.Route.plan;  (** the primary plan *)
  primary : int array array;
      (** per plan index, per node: the port the plan computes there
          ({!Kar.Route.port_at}), [-1] at edge nodes *)
  plan_of_edge : int array;  (** node -> plan index, -1 when unreachable *)
  flat : flat;
}

(** [prepare g ~plan ~policy ~src ~dst ()] plans every re-encode once,
    records each plan's per-node computed port and flattens [g].  Packets
    live {!Kar.Policy.ttl} hops, as in Karnet.
    @raise Invalid_argument when a core switch has more than
    {!Kar.Policy.max_degree} ports, or [src] has none. *)
val prepare :
  Graph.t ->
  plan:Kar.Route.plan ->
  policy:Kar.Policy.t ->
  src:Graph.node ->
  dst:Graph.node ->
  unit ->
  instance

(** [verify inst ~failed] classifies the instance under the failure set
    [failed] (link ids).
    @raise Invalid_argument on a link id that is not in the graph. *)
val verify : instance -> failed:Graph.link_id list -> classification * outcome

(** One hop of a concrete witness run. *)
type step = {
  switch : int;  (** switch id (label) making the decision *)
  in_port : int;
  out_port : int;
  via_computed : bool;  (** modulo answer, vs. a deflection draw *)
  deflected_before : bool;
  deflected_after : bool;
  stranded : int;
      (** label of the edge the packet stranded at (and was re-encoded
          by) after this hop, or -1 *)
}

(** A concrete failing run: a finite walk into a drop, or a lasso whose
    unrolling exhausts the TTL. *)
type refutation =
  | Drops of { steps : step list; at : int; at_in_port : int }
  | Loops of { prefix : step list; cycle : step list }

(** [refute inst ~failed] is one concrete failing run under [failed]
    ([None] when delivery is guaranteed), plus the label of the edge the
    packet stranded at straight off injection (-1 normally) so
    {!Counterexample} can reproduce the initial re-encode. *)
val refute : instance -> failed:Graph.link_id list -> refutation option * int

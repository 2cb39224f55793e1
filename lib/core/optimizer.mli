(** Analysis-guided protection planning.

    {!Route.protect_skipping} over the distance-ordered tree hops fills a
    bit budget in distance-from-path order — the natural heuristic, but (as
    the budget ablation shows) early hops can even {e hurt} when they
    funnel deflected packets back toward the failure.  This module plans protection using
    the exact {!Markov} analysis as the objective — the worst-case
    delivery probability over a set of failure cases: each greedy step
    adds the hop that most improves it, and steps that do not improve it
    are skipped rather than blindly included.

    The objective is evaluated exactly (no sampling), so optimization is
    deterministic and reproducible. *)

module Graph = Topo.Graph

type step = {
  hop : int * int; (** the protection hop added *)
  score_before : float;
  score_after : float;
  bits_after : int;
}

type result = {
  plan : Route.plan;
  steps : step list; (** in the order taken *)
  score : float; (** final objective value *)
}

(** [optimize g ~plan ~policy ~failures ~src ~dst ~bits] greedily folds
    candidate hops into [plan], keeping only hops that strictly improve
    the worst-case delivery probability.  The candidates are the tree hops
    of every off-path switch toward the plan's egress switch; each is
    tried with {!Route.protect_skipping} [~max_bits:bits], so a hop that
    would push the plan's Eq. 9 bound past [bits] is never taken.
    O(|candidates|^2) exact analyses — fine for the paper-scale topologies
    this targets. *)
val optimize :
  Graph.t ->
  plan:Route.plan ->
  policy:Policy.t ->
  failures:Graph.link_id list ->
  src:Graph.node ->
  dst:Graph.node ->
  bits:int ->
  result

(** [score g ~plan ~policy ~failures ~src ~dst] is a plan's minimum
    delivery probability over [failures] (1 when there are none), exposed
    for tests and for comparing planners. *)
val score :
  Graph.t ->
  plan:Route.plan ->
  policy:Policy.t ->
  failures:Graph.link_id list ->
  src:Graph.node ->
  dst:Graph.node ->
  float

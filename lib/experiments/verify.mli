(** Beyond the paper: exhaustive k-failure resilience verification.

    The simulation experiments sample what KAR does under failures; this
    one {e decides} it.  Every (src, dst) edge pair of the two evaluation
    topologies is prepared once and every failure set
    of up to [max_k] core links is classified by the exhaustive verifier
    ({!Kar_verify.Verifier}) with deflection draws treated as adversarial
    choice.  Refuted classes come with a machine-checked counterexample
    trace (replayed through {!Trace.Invariant}).

    The per-pair summary is the Chiesa-style resilience number: the
    largest k for which {e every} connected failure set of size at most k
    is classified Guaranteed (adversarial) or still admits a delivering
    resolution (angelic).

    The sweep is exhaustive and randomness-free; it parallelises over the
    shared {!Util.Pool} with an order-restoring join, so output is
    byte-identical at any [-j]. *)

module Graph = Topo.Graph
module Verifier = Kar_verify.Verifier

(** Sweep-depth override ([kar_experiments verify --max-k], CI smoke);
    [None] uses the defaults: net15 k <= 3, rnp28 k <= 2. *)
val max_k_override : int option ref

type pair_report = {
  src : int;  (** edge label *)
  dst : int;
  per_k : int array array;
      (** [per_k.(k-1).(i)] = failure sets of size k classified as
          [List.nth Verifier.all_classifications i] *)
  adv_k : int;
      (** largest k <= max_k with every connected set Guaranteed *)
  ang_k : int;
      (** largest k <= max_k with every connected set deliverable under
          some resolution of the deflection draws *)
}

type counterexample = {
  cx_class : Verifier.classification;
  cx_src : int;
  cx_dst : int;
  cx_failed : string list;  (** failed links as ["SWa-SWb"] *)
  cx_events : Trace.Event.t list;
  cx_violations : Trace.Invariant.violation list;
}

type topo_report = {
  topology : string;
  max_k : int;
  policy : Kar.Policy.t;
  n_core_links : int;
  pairs : pair_report list;
  counterexamples : counterexample list;
      (** first refutation per refuted class, in sweep order *)
}

(** {!Topo.Graph.core_links}. *)
val core_links : Graph.t -> Graph.link_id list

(** All k-subsets in lexicographic order of the input — the deterministic
    sweep order. *)
val failure_sets : Graph.link_id list -> k:int -> Graph.link_id list list

(** [instance_for g ~src ~dst ~policy] prepares a verification instance
    over {!Kar.Controller.protected_route} at full protection. *)
val instance_for :
  Graph.t ->
  src:Graph.node ->
  dst:Graph.node ->
  policy:Kar.Policy.t ->
  Verifier.instance

(** [run_topology ?registry ?spans ~name sc ~max_k ~policy ()] sweeps one
    topology.  When [registry] is given, the sweep tallies
    [verify/failure-sets], one [verify/verdict-*] counter per
    classification, and the [verify/states] state-space-size histogram —
    counted on one registry shard per chunk of work
    ({!Kar_obs.Registry.shards}) and merged after the {!Util.Pool} join,
    so totals are identical at any [-j].  When [spans] is given, one
    [Verify_sweep] span is recorded per topology; the sweep has no
    simulation clock, so the span's virtual time is its own progress (one
    unit per verified failure set) and [detail] is the unit count. *)
val run_topology :
  ?registry:Kar_obs.Registry.t ->
  ?spans:Kar_obs.Span.t ->
  name:string ->
  Topo.Nets.scenario ->
  max_k:int ->
  policy:Kar.Policy.t ->
  unit ->
  topo_report

(** [run ()] sweeps both evaluation topologies (NIP by default);
    [registry]/[spans] as in {!run_topology}. *)
val run :
  ?registry:Kar_obs.Registry.t ->
  ?spans:Kar_obs.Span.t ->
  ?policy:Kar.Policy.t ->
  unit ->
  topo_report list

(** [to_string ~metrics:true ()] appends the sweep's registry summary and
    span table to the report. *)
val to_string : ?policy:Kar.Policy.t -> ?metrics:bool -> unit -> string

(** The golden-fixture content (test/fixtures/verify_net15_k2.jsonl):
    per-pair verdict lines for net15 at k <= 2 plus the first
    counterexample trace, one JSON object per line. *)
val fixture_lines : unit -> string list

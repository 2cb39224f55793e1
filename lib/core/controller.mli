(** The KAR network controller: the component that knows the topology,
    assigns protection, computes route IDs for flows, and re-encodes
    stranded packets (section 2's router component).

    The controller is a pure planning layer over {!Route} and
    {!Protection}; it holds no per-flow network state (KAR cores are
    stateless) and — matching the paper's evaluation setup — ignores
    failure notifications: plans are computed on the failure-free
    topology. *)

module Graph = Topo.Graph

(** The paper's three protection levels (Table 1, Fig. 5). *)
type level =
  | Unprotected
  | Partial
  | Full

val all_levels : level list
val level_to_string : level -> string

(** Inverse of {!level_to_string}. *)
val level_of_string : string -> level option

(** [scenario_hops sc level] is the protection hop set a scenario uses at
    [level]: [[]] / the scenario's partial hops / partial plus full. *)
val scenario_hops : Topo.Nets.scenario -> level -> (int * int) list

(** [scenario_plan sc level] encodes the scenario's forward route (ingress
    to egress over the primary path) with [level] protection. *)
val scenario_plan : Topo.Nets.scenario -> level -> Route.plan

(** [scenario_reverse_plan sc level] encodes the route for reverse traffic
    (ACKs): the reversed primary path, protected by giving the {e same}
    member switches their tree hop toward the reverse destination. *)
val scenario_reverse_plan : Topo.Nets.scenario -> level -> Route.plan

(** [route g ~src ~dst ~protection] plans a shortest-path route between two
    edge nodes and folds in the given protection hops.  [usable] (default:
    everything) restricts the links the primary path may use — the serving
    control plane ({!Kar_service}) passes the currently-failed link set so
    post-failure replans route around known failures; protection hops are
    not filtered (they are data-plane residues, vetted by the data plane's
    own liveness check).
    @raise Invalid_argument when no path exists or encoding fails,
    including a primary path whose route ID no header can carry
    ({!Route.Exceeds_header}). *)
val route :
  ?usable:(Graph.link -> bool) ->
  Graph.t -> src:Graph.node -> dst:Graph.node -> protection:(int * int) list -> Route.plan

(** [protected_route ?usable ?max_bits g ~src ~dst ~level] plans a
    shortest-path route and folds in protection computed uniformly for the
    pair (rather than the hand-pinned scenario hops): a shortest-path tree
    rooted at the egress core switch over the off-path members the level
    selects — radius-1 neighbours of the path for [Partial], every
    off-path core switch in the component for [Full].  [usable] (default:
    everything) restricts the primary path's links as in {!route}; the
    trees are built on the whole graph.  A tree hop is skipped by
    {!Route.protect_skipping}'s rules: one that {!Route.protect} would
    reject after the hops already kept (so a labelling with only advisory
    issues, [Ids.Port_unencodable], yields a plan with fewer protected
    switches instead of an exception), and one that would take the plan's
    Eq. 9 bound past [max_bits].  [max_bits] defaults to
    {!Wire.Header.max_route_bits}, so by default every plan fits the
    header and a level that does not fit degrades to the strongest
    protection that does; only the scaling study passes [max_int], to
    measure unbounded plans.  This is the one planner behind the
    resilience verifier, the plan server ({!Kar_service}), the adversarial
    scenario and the scaling study.
    @raise Invalid_argument only when no path exists or the primary path
    itself cannot be encoded (a primary path wider than the header
    included, whatever [max_bits]). *)
val protected_route :
  ?usable:(Graph.link -> bool) ->
  ?max_bits:int ->
  Graph.t -> src:Graph.node -> dst:Graph.node -> level:level -> Route.plan

(** [disjoint_plans g ~src ~dst ~k] plans up to [k] mutually edge-disjoint
    routes between two edge nodes (greedy shortest-path extraction), each
    encoded as its own route ID.  This is the substrate for 1+1 ingress
    failover and for the multipath use the paper lists as future work: the
    ingress can stripe or switch between the returned route IDs without any
    core involvement. *)
val disjoint_plans :
  Graph.t -> src:Graph.node -> dst:Graph.node -> k:int -> Route.plan list

(** Memoised stranded-packet re-encoding service (the paper's second edge
    approach: "the controller recalculates the route ID based on the best
    path from the edge node to the destination").  Plans are computed on
    the failure-free topology, unprotected, and cached per
    [(edge, destination)] pair. *)
type cache

val create_cache : Graph.t -> cache

(** [reencode cache ~at ~dst] is the fresh route ID from edge [at] to edge
    [dst], or [None] when no path exists or encoding fails (a path whose
    route ID no header can carry included), so the packet drops as
    no-route. *)
val reencode : cache -> at:Graph.node -> dst:Graph.node -> Bignum.Z.t option

(** [plans_computed cache] counts the [(at, dst)] pairs actually planned so
    far (failed plans included); repeated {!reencode} calls for a cached
    pair do not move it.  Observability for tests and the serving layer. *)
val plans_computed : cache -> int

(** The simulated network: links with rate/delay/queues, link failures, and
    per-node packet handlers.

    Each undirected {!Topo.Graph.link} is simulated as two independent
    directed channels.  A channel transmits one packet at a time
    (store-and-forward: serialisation at [rate_bps], then propagation after
    [delay_s]) and queues up to [queue_capacity_bytes] behind the
    transmitter, dropping from the tail beyond that.

    Node behaviour is pluggable: {!set_node_handler} assigns the callback
    run when a packet arrives at a node.  The KAR switch behaviour lives in
    {!Karnet}; hosts are assigned by the workload/TCP layers.

    Link state changes in two ways only: {!fail_link}/{!repair_link} act
    immediately (static failures before a run), and every timed failure or
    repair is a {!schedule_admin} barrier action armed from a scenario
    event stream by [Kar_scenario.Driver.arm]. *)

type t

(** The simulator's log source (["kar.netsim"]): link failures and repairs
    at [Info], per-packet drops at [Debug].  Silent unless the application
    sets up a [Logs] reporter. *)
val log_src : Logs.src

(** Reasons for packet loss, tallied in {!stats}. *)
type drop_reason =
  | Link_down (** sent into a failed link, or queued there when it failed *)
  | Queue_full
  | No_route (** the forwarding decision was [Drop] *)
  | Ttl_exceeded

(** An immutable snapshot of the [netsim/*] registry counters (the live
    values are {!Kar_obs.Registry} cells; see {!registry}). *)
type stats = {
  injected : int;
  delivered : int; (** packets consumed by a host handler *)
  dropped_link_down : int;
  dropped_queue_full : int;
  dropped_no_route : int;
  dropped_ttl : int;
  total_switch_hops : int; (** forwarding decisions taken at core switches *)
  deflections : int; (** forwarding decisions that deflected *)
  reencodes : int; (** stranded packets re-encoded at an edge *)
}

(** [handler net node packet ~in_port] consumes a packet arriving at
    [node] via [in_port] ([-1] for locally injected packets). *)
type handler = t -> Topo.Graph.node -> Packet.t -> in_port:int -> unit

(** [create ~graph ~engine ()] builds an idle network; all links start up.
    [queue_capacity_bytes] defaults to 1 MiB per channel (Mininet-like deep
    queues); [ttl] (maximum switch hops per packet) defaults to
    {!Kar.Policy.ttl}.
    [detection_delay_s] (default 0: oracle detection, the paper's implicit
    assumption) delays the moment switches {e observe} a liveness change:
    until then they keep forwarding into a dead link and those packets are
    lost — the loss-of-signal / BFD window of a real deployment.
    [registry] is the metrics registry the network's counters, gauges and
    engine probes register on (a fresh private registry when omitted).
    @raise Invalid_argument if a core switch has more ports than a
    live-port mask holds ({!Kar.Policy.max_degree}). *)
val create :
  graph:Topo.Graph.t ->
  engine:Engine.t ->
  ?registry:Kar_obs.Registry.t ->
  ?queue_capacity_bytes:int ->
  ?ttl:int ->
  ?detection_delay_s:float ->
  unit ->
  t

(** {2 Sharded (conservative parallel) simulation}

    [create_partitioned ~graph ~partition ()] builds a network whose
    switches are split across [partition.n_regions] regions.  Each region
    owns a private event heap, metrics shard, packet pool and the
    [busy_until] state of the channels transmitting out of its nodes, and
    is simulated by whichever domain claims it in each epoch;
    {!run_until} advances all regions in lockstep epochs of width
    [partition.lookahead] (the minimum propagation delay across cut
    links), exchanging boundary packets through per-region-pair mailboxes
    drained in a canonical order at each barrier.  Failures of cut links (and anything else registered
    with {!schedule_admin}) execute single-threaded at barriers.

    A 1-region partition degenerates to exactly the serial structure (no
    barriers, no buffering) with a private engine.

    Determinism: a sharded run produces byte-identical traces and
    equivalent [netsim/*] flow counters at any region count.  Metrics
    that describe the {e execution} rather than the {e simulated network}
    — [engine/*] probes, [netsim/epochs], [netsim/region-*],
    [netsim/pool-hit]/[netsim/pool-grow], [topo/cut-edges-ppm] — depend
    on the partition by nature and are excluded from that guarantee
    ([netsim/pool-release] and [netsim/queue-peak-bytes] remain
    invariant).

    @raise Invalid_argument if the partition does not match [graph], if
    (with 2+ regions) a cut link has a non-positive delay — a zero-delay
    cut would force zero-width epochs and deadlock the barrier — or if a
    core switch is too wide for a live-port mask (as {!create}). *)
val create_partitioned :
  graph:Topo.Graph.t ->
  partition:Topo.Partition.t ->
  ?registry:Kar_obs.Registry.t ->
  ?queue_capacity_bytes:int ->
  ?ttl:int ->
  ?detection_delay_s:float ->
  unit ->
  t

(** [run_until net t] advances the simulation to virtual time [t]: on a
    solo net, exactly [Engine.run_until]; on a sharded net, the epoch
    barrier loop, each epoch one {!Util.Pool.map} over the regions on a
    private pool of [min regions (Util.Pool.current_jobs ())] domains
    (the caller included) that lives for the duration of the call.  If a
    node handler raises, the handler's own exception escapes.  After a
    normal return, every region's metrics shard has been drained into
    {!registry}. *)
val run_until : t -> float -> unit

(** Region count (1 for solo nets). *)
val n_regions : t -> int

(** [region_of net node] is the region owning [node] (0 for solo nets). *)
val region_of : t -> Topo.Graph.node -> int

(** The epoch width: minimum cut-link delay ([infinity] for solo nets). *)
val lookahead : t -> float

(** [schedule_admin net ~at f] runs [f] at virtual time [at] in the
    global (single-threaded) context: at an epoch barrier on sharded
    nets, as an engine event on solo nets (queued on one admin lane, see
    {!Engine.lane}).  All regions' clocks read exactly [at] while [f]
    runs, so [f] may observe or mutate cross-region state consistently.
    @raise Invalid_argument naming [at] and the clock, on either kind of
    net, if [at] is NaN or before the current time; nothing is queued. *)
val schedule_admin : t -> at:float -> (unit -> unit) -> unit

(** [schedule_at_node net node ~at f] schedules [f] on the region that
    owns [node] — required for setup-time code entering a sharded
    timeline (e.g. a TCP flow kickoff at its source host).  On solo nets
    with [at] not in the future, [f] runs immediately (the historical
    behaviour); on sharded nets it runs at the region's current time.
    @raise Invalid_argument naming the clock, on either kind of net, if
    [at] is NaN. *)
val schedule_at_node :
  t -> Topo.Graph.node -> at:float -> (unit -> unit) -> unit

val graph : t -> Topo.Graph.t

(** The engine of the calling context's region: the net's single engine
    on solo nets; inside a sharded run, the engine of the region whose
    event is currently executing (handlers use it for [now] and local
    timer scheduling, exactly as in the serial simulator). *)
val engine : t -> Engine.t

(** The network's metrics registry: [netsim/*] counters (injected,
    delivered, per-reason drops, switch-hops, deflections, reencodes,
    pool-hit/grow/release), the [netsim/queue-peak-bytes] high-watermark
    gauge, and [engine/*] probes (events, pending, heap-peak). *)
val registry : t -> Kar_obs.Registry.t

(** [stats net] snapshots the registry counters into a plain record. *)
val stats : t -> stats

val ttl : t -> int

(** [set_node_handler net node h] routes arriving packets at [node] to
    [h].  Nodes without a handler count arrivals as delivered if the packet
    is addressed to them and as [No_route] drops otherwise. *)
val set_node_handler : t -> Topo.Graph.node -> handler -> unit

(** [send net ~from_node ~port packet] enqueues [packet] on the directed
    channel out of [from_node]'s [port].  If the link is down the packet is
    dropped and counted. *)
val send : t -> from_node:Topo.Graph.node -> port:int -> Packet.t -> unit

(** [inject net ~at packet] delivers [packet] to [at]'s handler immediately
    (in-node injection from a host stack; [in_port = -1]). *)
val inject : t -> at:Topo.Graph.node -> Packet.t -> unit

(** [drop net packet reason] records a loss (exposed for node handlers).
    [?at]/[?in_port] locate the loss for the flight recorder (omitted =
    on-wire / unknown). *)
val drop :
  ?at:Topo.Graph.node -> ?in_port:int -> t -> Packet.t -> drop_reason -> unit

(** [delivered net packet] records a completed delivery (for host
    handlers).  [?in_port] is the arrival port, for the flight recorder. *)
val delivered : ?in_port:int -> t -> Packet.t -> unit

(** [count_deflection net] bumps the deflection counter (used by Karnet). *)
val count_deflection : t -> unit

val count_reencode : t -> unit

(** [count_hop net] bumps the switch-hop counter — one forwarding decision
    taken at a core switch (used by Karnet). *)
val count_hop : t -> unit

(** [link_up net id] is the current physical liveness of link [id];
    switches observe it through {!live_mask}, after the detection
    delay. *)
val link_up : t -> Topo.Graph.link_id -> bool

(** [fail_link net id] takes the link down immediately, discarding both
    channels' queues and any packet mid-flight on them. *)
val fail_link : t -> Topo.Graph.link_id -> unit

(** [repair_link net id] restores the link. *)
val repair_link : t -> Topo.Graph.link_id -> unit

(** [fresh_uid net] allocates a packet uid. *)
val fresh_uid : t -> int

(** {2 Packet buffer pool}

    The network owns a free-list pool of flat packet buffers.  [alloc]
    recycles a released buffer (or grows the pool on first use), stamps a
    fresh uid and the current time, and returns a live packet — the
    steady-state injection path allocates zero minor words once the pool is
    warm.  Packets reach the pool again at every terminal point: {!drop}
    releases internally, handler-less delivery releases after counting, and
    {!Karnet} edge handlers release after the receive callback.  [free] is
    for custom handlers that consume packets themselves; it is a no-op on
    unpooled ({!Packet.make}) handles and on already-released packets, so
    calling it defensively is safe. *)

val alloc :
  t ->
  src:Topo.Graph.node ->
  dst:Topo.Graph.node ->
  size_bytes:int ->
  route_id:Bignum.Z.t ->
  Packet.payload ->
  Packet.t

val free : t -> Packet.t -> unit

(** The network's main buffer pool (counter accessors: {!Packet.Pool.hits},
    {!Packet.Pool.grows}, {!Packet.Pool.in_flight},
    {!Packet.Pool.releases}).  On a sharded net the counters aggregate all
    region pools once {!run_until} has drained the shards; use
    {!pool_in_flight} for the in-flight figure. *)
val pool : t -> Packet.Pool.t

(** Packets currently alive across every region pool (equals
    [Packet.Pool.in_flight (pool net)] on solo nets). *)
val pool_in_flight : t -> int

(** [live_mask net node] is the live-port mask core switch [node]
    currently observes (bit [p] = port [p] usable; liveness changes land
    after the detection delay), the [~live] argument of
    {!Kar.Policy.choose}.  Always [0] for edge nodes. *)
val live_mask : t -> Topo.Graph.node -> int

(** {2 Flight recorder}

    Attaching a {!Trace.Recorder.t} makes the network emit a
    {!Trace.Event.t} per packet lifecycle step (inject, forwarding
    decision, re-encode, deliver, drop) and maintain per-switch
    deflection/drive tallies.  Detached (the default) the data plane does
    no event work at all. *)

val set_recorder : t -> Trace.Recorder.t option -> unit
val recorder : t -> Trace.Recorder.t option

(** [record_decision net ~switch ~in_port ~out_port packet action] appends
    a flight-recorder event through the network's ordering machinery: a
    direct append on solo nets, the region's canonical-merge buffer on
    sharded nets.  {!Karnet} uses it for forwarding decisions and
    re-encodes; handlers must never call {!Trace.Recorder.record} on the
    attached recorder themselves, which would break sharded trace order. *)
val record_decision :
  t ->
  switch:int ->
  in_port:int ->
  out_port:int ->
  Packet.t ->
  Trace.Event.action ->
  unit

(** [note_deflect net node] / [note_drive net node] bump the per-switch
    observability tallies (called by {!Karnet} while a recorder is
    attached). *)
val note_deflect : t -> Topo.Graph.node -> unit

val note_drive : t -> Topo.Graph.node -> unit

(** Per-switch deflections/drives observed while a recorder was attached. *)
val deflections_at : t -> Topo.Graph.node -> int

val drives_at : t -> Topo.Graph.node -> int

(** [queue_drops_on net link] — tail drops on [link] (either direction),
    maintained unconditionally. *)
val queue_drops_on : t -> Topo.Graph.link_id -> int

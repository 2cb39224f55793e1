(** KAR node behaviours for the simulator: the modified software switch of
    the paper's prototype (modulo forwarding + deflection) and the edge-node
    logic (delivery, stranded-packet re-encoding).

    Each core switch gets its own PRNG stream (split from one seed), so a
    whole run is reproducible from topology + policy + seed. *)

(** The switches' log source (["kar.switch"]): first deflections of each
    packet at [Debug]. *)
val log_src : Logs.src

(** [install_switches net ~policy ?plan ~seed] sets the handler of every
    core node: on arrival the packet's hop count is bumped (TTL enforced),
    the output port is computed per [policy], and the packet is forwarded
    or dropped.  The first deflection of each packet is tallied in the net
    stats.

    With [?plan], each switch answers the modulo computation through the
    reader [Kar.Route.cached_port_flat] builds for it once, at install
    time: the switch's residue for packets carrying the plan's route ID,
    the remainder kernel for any other route ID (e.g. after an edge
    re-encode) — behaviour is identical either way, byte-for-byte in the
    flight-recorder trace.  The
    steady-state forward path (computed port healthy, no recorder
    attached) performs no minor-heap allocation. *)
val install_switches :
  ?plan:Kar.Route.plan -> Net.t -> policy:Kar.Policy.t -> seed:int -> unit

(** What an edge node does with a packet addressed to itself. *)
type receive = Net.t -> Packet.t -> unit

(** [install_edge net node ~reencode ~receive] sets an edge handler:
    packets addressed to [node] are counted delivered and passed to
    [receive]; stranded packets (addressed elsewhere) get a new route ID
    from [reencode] — the paper's "controller recalculates the route ID
    based on the best path from the edge node to the destination" — and are
    re-injected after 1 ms of control-plane latency, with the HP deflected
    flag cleared; [reencode] returning [None] drops the packet. *)
val install_edge :
  Net.t ->
  Topo.Graph.node ->
  reencode:(Packet.t -> Bignum.Z.t option) ->
  receive:receive ->
  unit ->
  unit

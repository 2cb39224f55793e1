(** Ingress reactions to a link failure: what, besides the data plane
    itself, changes the route ID a flow stamps while a link is down.

    The failure window is not armed here: every timed fail and repair
    reaches the simulator as a [Kar_scenario.Driver.arm] event.  A
    reaction only re-stamps the flow's forward route, so the schemes
    differ in exactly one thing — who reacts, and how late.

    - {e Controller reroute}: the classical SDN loop the paper's
      introduction argues is too slow.  The flow runs unprotected KAR with
      the {!Kar.Policy.No_deflection} data plane; the controller hears of
      the failure after a notification delay and re-stamps the ingress
      with a route avoiding the failed link.  Packets sent in between are
      lost — the loss window KAR's deflections remove.
    - {e 1+1 ingress failover}: the source holds pre-planned edge-disjoint
      route IDs ({!Kar.Controller.disjoint_plans}) and switches to a
      backup one detection delay after the failure.  It sits between
      deflection (zero reaction time, in-network) and controller reroute
      (a full control-plane round trip); KAR's advantage over it is that
      in-flight packets are saved too, and no per-flow state is needed at
      the edge. *)

module Net = Netsim.Net
module Graph = Topo.Graph

type t =
  | Deflection  (** KAR: the data plane is the whole reaction *)
  | Controller_reroute of float
      (** after this notification delay the controller re-stamps the
          ingress with {!reroute}'s route (pair with [No_deflection]) *)
  | Ingress_failover of float
      (** after this reaction delay the ingress switches to
          {!plan_avoiding}'s edge-disjoint backup *)

(** [reroute g ~src ~dst ~failed] is the controller's replan: the shortest
    unprotected route between two edge nodes over links [failed] does not
    hold, or [None] when none survives. *)
val reroute :
  Graph.t ->
  src:Graph.node ->
  dst:Graph.node ->
  failed:(Graph.link_id -> bool) ->
  Kar.Route.plan option

(** [plan_avoiding g plans ~failed] is the first plan whose core path
    crosses no link [failed] holds. *)
val plan_avoiding :
  Graph.t ->
  Kar.Route.plan list ->
  failed:(Graph.link_id -> bool) ->
  Kar.Route.plan option

(** [arm net sc ~flow ~link ~at ~repair_at reaction] schedules the
    reaction to [link] failing at [at] and coming back at [repair_at], for
    a flow from [sc]'s ingress to its egress.  A delayed reaction
    re-stamps the flow at [at + delay] (nothing happens if no route
    avoids [link]) and restores the original route at [repair_at]: the
    unprotected scenario plan after a reroute, the first disjoint plan
    after a failover.  [Deflection] schedules nothing.  Both actions run
    through {!Netsim.Net.schedule_admin}.
    @raise Invalid_argument for [Ingress_failover] when the ingress and
    egress are disconnected. *)
val arm :
  Net.t ->
  Topo.Nets.scenario ->
  flow:Tcp.Flow.t ->
  link:Graph.link_id ->
  at:float ->
  repair_at:float ->
  t ->
  unit

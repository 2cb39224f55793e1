(** Simulated packets, carried as flat {!Wire.Flat} byte images.

    A packet handle wraps one fixed-size [Bytes.t] holding every header
    field (uid, src, dst, size, hops, reencoded, deflected, route-ID limbs);
    core switches read the route ID straight off the limb words through
    the per-switch reader {!Kar.Route.cached_port_flat} builds — no record,
    no [Z.t], no allocation on the forwarding path.  [payload] is an extensible variant so higher
    layers (TCP, probe workloads) attach their own data without the
    simulator depending on them; [born] stays an exact float for latency
    stats.

    Handles are either {e unpooled} (from {!make}: one-shot, never
    recycled) or {e pooled} (from {!Pool.acquire}: recycled through a
    free list so the steady-state loop allocates zero minor words per
    packet).  The image's live bit tracks ownership: {!Pool.release} is a
    no-op on unpooled or already-released handles, so boundary code may
    release unconditionally. *)

module Z = Bignum.Z

type payload = ..

type payload += Raw (** contentless filler traffic *)

type t

(** The underlying flat image, for direct kernel access
    ({!Kar.Policy.computed_port_flat}, the readers of
    {!Kar.Route.cached_port_flat}). *)
val bytes : t -> Bytes.t

val uid : t -> int
val src : t -> Topo.Graph.node
val dst : t -> Topo.Graph.node
val size_bytes : t -> int

(** Materialises the route ID from the limb words (allocates; boundary use
    only — the data plane reads the image directly). *)
val route_id : t -> Z.t

(** Rewrite the route ID in place (edge re-encoding, ingress stamping). *)
val set_route_id : t -> Z.t -> unit

val deflected : t -> bool
val set_deflected : t -> bool -> unit
val hops : t -> int
val set_hops : t -> int -> unit
val reencoded : t -> int
val set_reencoded : t -> int -> unit
val payload : t -> payload
val set_payload : t -> payload -> unit

(** Creation time, for latency stats. *)
val born : t -> float

(** The image's live bit: true between stamp/acquire and pool release. *)
val live : t -> bool

(** Re-initialise every field of an existing handle in place.  Writes only
    into the byte image (plus the two non-image fields), so it allocates
    nothing when [born] is an already-boxed float and [payload] a constant
    constructor. *)
val stamp :
  t ->
  uid:int ->
  src:Topo.Graph.node ->
  dst:Topo.Graph.node ->
  size_bytes:int ->
  route_id:Z.t ->
  born:float ->
  payload ->
  unit

(** [make ~uid ~src ~dst ~size_bytes ~route_id ~born payload] builds a fresh
    unpooled packet (not yet injected). *)
val make :
  uid:int ->
  src:Topo.Graph.node ->
  dst:Topo.Graph.node ->
  size_bytes:int ->
  route_id:Z.t ->
  born:float ->
  payload ->
  t

(** Free-list pool of reusable packet buffers.  Counters are
    {!Kar_obs.Registry} cells ([netsim/pool-hit], [netsim/pool-grow],
    [netsim/pool-release]) registered on the caller's registry (or a
    private one), so pool health shows up in the unified metrics schema
    without any extra bookkeeping. *)
module Pool : sig
  type packet = t
  type t

  (** [create ?registry ()] makes an empty pool; its counters register on
      [registry] (a fresh private registry when omitted). *)
  val create : ?registry:Kar_obs.Registry.t -> unit -> t

  (** Pop a buffer from the free list (or allocate one on first use) and
      mark it live.  The image's other fields are stale — callers must
      {!stamp} before use. *)
  val acquire : t -> packet

  (** Return a packet to the free list.  No-op on unpooled handles and on
      packets already released (live bit guard), so releasing at every
      terminal point (drop, delivery) is safe even when paths overlap. *)
  val release : t -> packet -> unit

  (** Acquires served from the free list. *)
  val hits : t -> int

  (** Acquires that had to allocate a new buffer. *)
  val grows : t -> int

  (** Effective releases (double-release no-ops excluded). *)
  val releases : t -> int

  (** Pooled packets currently out (not on the free list). *)
  val in_flight : t -> int

  (** Buffers currently parked in the free list.  A sharded net sums
      this over its per-region pools to compute a pool-placement-
      independent in-flight figure. *)
  val free_count : t -> int
end

val pp : Format.formatter -> t -> unit

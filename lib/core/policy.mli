(** KAR data-plane forwarding: the modulo computation and the three
    deflection techniques of section 2.1.

    A KAR core switch is stateless: the forwarding decision is a pure
    function of the packet's route ID, the switch's own ID, the input port,
    the liveness of the local ports — plus a random draw when deflecting.
    The only per-packet state is the [deflected] flag that Hot-Potato needs
    ("once a packet is deflected, it follows a complete random path").

    Deflection picks uniformly among {e all healthy} ports (for NIP, minus
    the input port).  A deflection into an edge node strands the packet
    there; the edge then asks the controller for a fresh route ID — the
    paper's second edge-handling approach, used in all its tests.  The port
    selected by the modulo computation is always honoured wherever it
    points; delivery to the egress host works through it. *)

type t =
  | No_deflection
      (** baseline: drop when the computed port is unusable (the paper's
          "no deflection" curve in Fig. 4) *)
  | Hot_potato
      (** HP: first unusable computed port marks the packet deflected;
          deflected packets random-walk over healthy ports *)
  | Any_valid_port
      (** AVP: always recompute the modulo; random pick (including the
          input port) only when the computed port is unusable *)
  | Not_input_port
      (** NIP: AVP, additionally never returning the packet through its
          input port (Algorithm 1) *)

val all : t list
val to_string : t -> string
val of_string : string -> t option

(** Switch hops a packet may take before it is dropped (128): the initial
    TTL of a simulated packet and the hop bound of the walker and the
    verifier. *)
val ttl : int

(** {2 The forwarding decision}

    [choose policy ~computed ~in_port ~deflected ~degree ~live] is the one
    definition of what a switch of [degree] ports does with a packet:
    [computed] is the modulo answer [<R>_s] (which may not name a port),
    [in_port] the arrival port (-1 for local injection), and [live] the
    bitmask of usable ports (bit [p] = port [p]; no bit at or above
    [degree]).  The result is an immediate int, so the call never
    allocates:

    - negative: {e take} port [lnot choice], the computed port; the
      packet's deflected flag is kept;
    - positive: {e pick} uniformly from the ports in mask [choice] (see
      {!pick}); the deflected flag becomes [true].  NIP's forced bounce
      back through the input port is the singleton case;
    - [0]: {e stuck}, no usable port; the packet is dropped.

    The data plane draws with {!pick}; the exact analysis ({!Markov}) and
    the verifier read the candidate mask itself. *)
val choose :
  t ->
  computed:int ->
  in_port:int ->
  deflected:bool ->
  degree:int ->
  live:int ->
  int

(** [pick rng m] is a uniformly drawn port of the non-empty mask [m]: one
    [Util.Prng.int rng (popcount m)] call, selecting that set bit in
    ascending port order.  A singleton mask consumes no draw. *)
val pick : Util.Prng.t -> int -> int

(** The widest switch a live-port mask describes: [Sys.int_size - 1]
    ports. *)
val max_degree : int

(** [check_degree ~who g v] rejects a node wider than {!max_degree}.
    @raise Invalid_argument naming [who] and the switch. *)
val check_degree : who:string -> Topo.Graph.t -> Topo.Graph.node -> unit

(** [mask_of_failures g ~node ~failed] is the live-port mask of [node]
    when exactly the links satisfying [failed] are down — the one
    live-mask builder shared by {!Walk}, {!Markov} and the verifier.
    @raise Invalid_argument when [node] has more than {!max_degree}
    ports. *)
val mask_of_failures :
  Topo.Graph.t -> node:Topo.Graph.node -> failed:(Topo.Graph.link_id -> bool) -> int

(** [computed_port ~switch_id ~route_id] is the raw modulo result
    [<R>_s] (which may not name an existing port), via the remainder-only
    kernel {!Bignum.Z.rem_int}. *)
val computed_port : switch_id:int -> route_id:Bignum.Z.t -> int

(** [computed_port_flat ~switch_id buf] is {!computed_port} over a
    {!Wire.Flat} packet image: the remainder fold runs directly on the
    buffer's route-ID limb words, allocating nothing. *)
val computed_port_flat : switch_id:int -> Bytes.t -> int

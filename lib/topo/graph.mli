(** Port-indexed network multigraph.

    KAR forwarding is defined in terms of {e output port indexes}: a core
    switch with ID [s] sends a packet with route ID [R] out of port
    [R mod s].  The graph therefore gives every node a dense array of ports
    ([0 .. degree-1]), each attached to one end of an undirected link.  Port
    numbering is part of the topology (the controller encodes port indexes
    into route IDs), so builders can pin explicit port numbers where a
    scenario requires them (e.g. the paper's Fig. 1 example needs SW7's port
    2 to face SW11).

    Nodes carry an integer [label]; for core switches the label {e is} the
    KAR switch ID (pairwise coprime across the core).  Edge nodes (hosts /
    autonomous systems) are [Edge]-kind and never appear in route IDs.

    The structure is immutable after {!Builder.finish}, apart from the
    trees it keeps per destination ({!dest_tree}), which depend on the
    structure alone; transient state (link failures, queue contents) lives
    in the simulator and analyses, parameterised by link predicates. *)

type node = int
(** Dense node index in [0 .. n_nodes-1]. *)

type link_id = int
(** Dense link index in [0 .. n_links-1]. *)

type node_kind =
  | Core (** KAR switch: forwards by [route_id mod switch_id] *)
  | Edge (** host / AS attachment point: adds and removes route IDs *)

type endpoint = { node : node; port : int }

type link = {
  id : link_id;
  ep0 : endpoint;
  ep1 : endpoint;
  rate_bps : float; (** capacity of each direction, bits per second *)
  delay_s : float; (** one-way propagation delay, seconds *)
}

type t

(** Core labels lie in [\[1, max_core_label)], [max_core_label = 2^31]: the
    per-packet kernel that reduces a route ID by a switch ID folds 31-bit
    limbs in machine ints, which is exact only for moduli below [2^31].
    {!Builder.add_node} and {!relabel} reject core labels outside that
    range. *)
val max_core_label : int

(** Incremental construction; see module doc for port semantics. *)
module Builder : sig
  type graph := t
  type t

  val create : unit -> t

  (** [add_node b label] appends a node and returns its index.
      @raise Invalid_argument if the label is already taken, or, naming the
      label, if a [Core] node's label is outside [\[1, max_core_label)]. *)
  val add_node : t -> ?kind:node_kind -> int -> node

  (** [add_link b u v] connects [u] and [v] using the lowest free port on
      each side.  Default [rate_bps] is 200 Mb/s (the paper's nominal load)
      and default [delay_s] is 50 us (Mininet-like). *)
  val add_link : t -> ?rate_bps:float -> ?delay_s:float -> node -> node -> link_id

  (** [add_link_at b (u, pu) (v, pv)] connects with explicit port numbers.
      @raise Invalid_argument if a port is already occupied, or, naming
      the link, if [rate_bps] is not a finite number [> 0] or [delay_s]
      not a finite number [>= 0]. *)
  val add_link_at :
    t -> ?rate_bps:float -> ?delay_s:float -> node * int -> node * int -> link_id

  (** [finish b] freezes the graph.
      @raise Invalid_argument if any node's ports are not dense
      ([0 .. degree-1] all occupied). *)
  val finish : t -> graph
end

val n_nodes : t -> int
val n_links : t -> int
val label : t -> node -> int
val kind : t -> node -> node_kind
val is_core : t -> node -> bool

(** [node_of_label g l] finds the node carrying label [l].
    @raise Not_found if absent. *)
val node_of_label : t -> int -> node

val find_label : t -> int -> node option

(** [degree g v] is the number of ports of [v]. *)
val degree : t -> node -> int

(** [link_at g v p] is the link attached to port [p] of [v].
    @raise Invalid_argument if [p] is out of range. *)
val link_at : t -> node -> int -> link

(** [peer g v p] is [(u, q)]: the far node of port [p] and the far port. *)
val peer : t -> node -> int -> node * int

(** [far g v p] is [fst (peer g v p)], the node across port [p] of [v],
    read from a per-node array that {!Builder.finish} fills (and
    {!relabel} keeps), so it allocates nothing: searches scan a node's
    ports with it.
    @raise Invalid_argument if [p] is out of range. *)
val far : t -> node -> int -> node

(** [neighbors g v] lists far nodes over all ports, in port order
    (duplicates possible on multigraphs). *)
val neighbors : t -> node -> node list

(** [ports g v] lists [(port, link, far_node)] in port order. *)
val ports : t -> node -> (int * link * node) list

(** [port_towards g v u] is the lowest-numbered port of [v] whose link
    reaches [u], if any. *)
val port_towards : t -> node -> node -> int option

val links : t -> link list
val link : t -> link_id -> link

(** [dest_tree g dest ~build] is the tree toward node [dest] that [g] keeps:
    a parent array, [parent.(v)] being [v]'s next node toward [dest]
    ([-1] at [dest] and at nodes the tree does not reach).  The first call
    for [dest] stores [build g dest] and later calls return the stored
    array without calling [build], so a tree must depend only on the
    graph and [dest], and every caller must pass a [build] that makes the
    same tree: [Protection]'s core-link tree is the one user.  Filling is
    domain-safe: two domains may build [dest]'s tree at once, one array is
    stored (atomic compare-and-set) and both return it.  The array is
    shared; callers must not mutate it.  {!relabel} keeps the trees, and
    shares them with the copy, since they hold nodes, not labels. *)
val dest_tree : t -> node -> build:(t -> node -> node array) -> node array

(** [link_between g u v] is the lowest-id link joining [u] and [v]. *)
val link_between : t -> node -> node -> link_id option

(** [link_between_labels g lu lv] is {!link_between} by node label.
    @raise Not_found if either label is absent. *)
val link_between_labels : t -> int -> int -> link_id

(** [other_end l v] is the endpoint of [l] not at [v].
    @raise Invalid_argument if [v] is on neither side. *)
val other_end : link -> node -> endpoint

(** [endpoint_at l v] is the endpoint of [l] at [v]. *)
val endpoint_at : link -> node -> endpoint

val fold_nodes : t -> init:'a -> f:('a -> node -> 'a) -> 'a
val iter_nodes : t -> f:(node -> unit) -> unit
val core_nodes : t -> node list
val edge_nodes : t -> node list

(** [core_links g] is the ids of the links joining two core switches, in
    ascending order. *)
val core_links : t -> link_id list

(** [core_labels g] is the sorted list of core switch IDs. *)
val core_labels : t -> int list

(** [relabel g mapping] returns a copy of [g] whose node [v] carries label
    [mapping.(v)]; used by switch-ID assignment strategies.  The copy
    shares [g]'s destination trees ({!dest_tree}).
    @raise Invalid_argument on duplicate labels, wrong array length, or a
    core label outside [\[1, max_core_label)]. *)
val relabel : t -> int array -> t

(** [pp] prints a compact human-readable summary. *)
val pp : Format.formatter -> t -> unit

(** Path computation over {!Graph}.

    The searches take an optional [usable] predicate on links so that
    analyses can exclude failed links without mutating the graph.  Paths are
    node lists from source to destination inclusive. *)

type path = Graph.node list

(** [bfs g ?usable src] is [(dist, parent)]: hop distances (or [max_int]
    when unreachable) and BFS parents ([-1] for the source and unreachable
    nodes).  Nodes are expanded in FIFO order and each node's ports in port
    order, so among equal-length paths the parent is the first discoverer.
    [usable] must be pure: it is asked only about a link to a node not yet
    discovered, and at most once per such port.  The search allocates
    its two result arrays and one queue array, and nothing per visited
    node. *)
val bfs :
  Graph.t -> ?usable:(Graph.link -> bool) -> Graph.node -> int array * int array

(** [shortest_path g ?usable src dst] is a minimum-hop path, or [None].
    Deterministic: among equal-length paths, prefers lower port numbers.
    It is the path {!bfs}'s parents give, from the same search stopped as
    soon as it discovers [dst]: a node's parent is fixed when the node is
    discovered, so stopping early changes no path, only how many links
    [usable] is asked about. *)
val shortest_path :
  Graph.t -> ?usable:(Graph.link -> bool) -> Graph.node -> Graph.node -> path option

(** [is_connected g] considers all links usable. *)
val is_connected : Graph.t -> bool

(** [path_links g path] maps consecutive node pairs to the connecting link
    ids. @raise Invalid_argument if two consecutive nodes are not
    adjacent. *)
val path_links : Graph.t -> path -> Graph.link_id list

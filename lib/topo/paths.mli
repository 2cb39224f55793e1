(** Path computation over {!Graph}.

    The searches take an optional [usable] predicate on links so that
    analyses can exclude failed links without mutating the graph.  Paths are
    node lists from source to destination inclusive. *)

type path = Graph.node list

(** [bfs g ?usable src] is [(dist, parent)]: hop distances (or [max_int]
    when unreachable) and BFS parents ([-1] for the source and unreachable
    nodes). *)
val bfs :
  Graph.t -> ?usable:(Graph.link -> bool) -> Graph.node -> int array * int array

(** [shortest_path g ?usable src dst] is a minimum-hop path, or [None].
    Deterministic: among equal-length paths, prefers lower port numbers. *)
val shortest_path :
  Graph.t -> ?usable:(Graph.link -> bool) -> Graph.node -> Graph.node -> path option

(** [is_connected g] considers all links usable. *)
val is_connected : Graph.t -> bool

(** [path_links g path] maps consecutive node pairs to the connecting link
    ids. @raise Invalid_argument if two consecutive nodes are not
    adjacent. *)
val path_links : Graph.t -> path -> Graph.link_id list

(** Driven-deflection protection planning.

    A protection plan is a set of directed hops [(switch, next)] folded into
    a route ID so that a deflected packet reaching any protected switch is
    deterministically driven toward the destination — the logical tree
    "with its root at destination" of section 2.  This module computes such
    trees and their candidate members; {!Route.protect_skipping} folds the
    resulting hops into a plan under a bit budget (the paper's partial
    protection, section 2.3). *)

module Graph = Topo.Graph

(** [tree_hops g ~dest members] gives each member switch its next hop on a
    shortest-path tree (over core links only) rooted at [dest]: the paper's
    driven-deflection forwarding paths.  Members already adjacent to the
    tree route through it; unreachable members are omitted.  [dest] is a
    core node; members are given and returned as labels.  The tree is
    {!Topo.Paths.bfs}'s over core-core links from [dest], built on the
    first call for [dest] and kept on [g] ({!Topo.Graph.dest_tree}), so a
    later call only reads it. *)
val tree_hops : Graph.t -> dest:Graph.node -> int list -> (int * int) list

(** [off_path_members g ~path ~radius] lists the labels of core switches
    within [radius] hops of any node of [path] (excluding the path's own
    nodes) — candidate protection members ordered by increasing distance
    from the path, then by label.  [~radius:max_int] is every off-path core
    switch in the path's connected component ("full protection"). *)
val off_path_members : Graph.t -> path:Graph.node list -> radius:int -> int list

(** [coverage g ~plan ~failed] estimates static protection coverage: for
    the failure of link [failed] on the plan's path, the fraction of
    deflection alternatives at the upstream switch that lead (following
    plan residues and forced moves only) to the destination without further
    random choices.  1.0 means every alternative is driven home (the
    deterministic Fig. 7 SW7-SW13 case). *)
val coverage : Graph.t -> plan:Route.plan -> failed:Graph.link_id -> float

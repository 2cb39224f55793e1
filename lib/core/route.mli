(** Route-ID construction: turning a path (plus driven-deflection protection
    hops) into the single integer a KAR edge node stamps on packets.

    A {!plan} records everything the controller decided: the residues
    (switch ID, output port), the CRT-encoded route ID and modulus, the core
    path, and the protection hops folded in.  Plans are immutable values;
    stamping a packet is just copying [route_id]. *)

module Z = Bignum.Z

type plan = {
  route_id : Z.t;
  modulus : Z.t; (** product of all switch IDs in the plan (Eq. 1) *)
  residues : Rns.residue list; (** in path order, protection hops last *)
  core_path : Topo.Graph.node list; (** primary path, core nodes only *)
  protection : (int * int) list; (** directed hops (switch, next) included *)
  bit_length : int; (** Eq. 9 bound for this plan's modulus *)
}

type error =
  | Rns_error of Rns.error
  | Not_adjacent of int * int (** labels of a non-adjacent consecutive pair *)
  | Not_core of int (** label of a non-core node used as a switch *)
  | Port_not_encodable of int * int
      (** (switch label, port): port index >= switch ID, so the residue
          cannot represent it *)
  | Duplicate_switch of int
      (** a switch can carry only one residue per route ID (the paper's
          intrinsic constraint discussed around Fig. 8) *)
  | Exceeds_header of int
      (** the Eq. 9 bound, in bits, of a primary path whose route ID no
          header can carry: wider than {!Wire.Header.max_route_bits} *)

val pp_error : Format.formatter -> error -> unit

(** [of_core_path g path ~egress_port] encodes the pure source route: each
    core node forwards toward its successor; the last core node uses
    [egress_port] (its port toward the destination edge).  No protection.
    A path whose Eq. 9 bound exceeds {!Wire.Header.max_route_bits} is the
    error [Exceeds_header bits]. *)
val of_core_path :
  Topo.Graph.t -> Topo.Graph.node list -> egress_port:int -> (plan, error) result

(** [of_labels g labels ~egress_label] is {!of_core_path} with nodes given
    by switch ID, the egress port resolved toward the edge node labelled
    [egress_label].  Convenience for scenario code. *)
val of_labels : Topo.Graph.t -> int list -> egress_label:int -> (plan, error) result

(** [protect g plan hops] folds directed protection hops
    [(switch_label, next_label)] into the plan, recomputing the route ID
    with the extra residues (still one CRT; order irrelevant by Eq. 4
    commutativity).  It applies no header budget; {!protect_skipping}
    does. *)
val protect : Topo.Graph.t -> plan -> (int * int) list -> (plan, error) result

(** [protect_skipping ?max_bits g plan hops] folds in each hop that
    {!protect} would accept after the hops already kept and skips the
    others, in one pass that continues the plan's own CRT state
    [(route_id, modulus)] in an {!Rns.Acc} accumulator: a kept residue is
    folded in once, nothing is re-encoded and the route ID and modulus are
    built once, so the result equals {!protect} of the kept hops.  A hop
    is skipped when its switch and next hop are not adjacent, its switch
    is not a core switch, its port is [>=] the switch ID, the switch ID is
    [<= 1] or shares a factor with a switch already in the plan (a
    repeated switch included), or the plan's Eq. 9 bound with it would
    exceed [max_bits] (default {!Wire.Header.max_route_bits}, the header's
    route-ID width).  A hop skipped for the budget does not end
    the fold: a later hop through a smaller switch ID may still fit.
    Returns [plan] itself when every hop is skipped.  [plan] must be one
    this module built, so that its modulus is the product of its
    residues' switch IDs. *)
val protect_skipping :
  ?max_bits:int -> Topo.Graph.t -> plan -> (int * int) list -> plan

(** [protect_exn], [of_labels_exn]: raising variants for scenario code
    where failure is a programming error. *)
val of_labels_exn : Topo.Graph.t -> int list -> egress_label:int -> plan

val protect_exn : Topo.Graph.t -> plan -> (int * int) list -> plan

(** [cached_port_flat plan ~switch_id] is switch [switch_id]'s data-plane
    reader: applied to a {!Wire.Flat} packet image it gives the forwarding
    answer [<R>_s] for the image's route ID.  The switch's residue is
    looked up in [plan.residues] once, when the reader is built (Karnet
    builds one per switch at install time).  When the switch carries a
    residue and the buffer carries the plan's own route ID (limb
    comparison), the reader returns the residue; otherwise (stray switch,
    or a packet re-encoded at an edge with a fresh route ID) it runs the
    in-place remainder fold.  Applying the reader allocates nothing. *)
val cached_port_flat : plan -> switch_id:int -> Bytes.t -> int

(** [port_at plan ~switch_id] is the port switch [switch_id] computes for
    this plan's route ID ([<R>_s]): the residue for switches in the plan,
    the modulo answer otherwise — useful for predicting where stray
    packets go. *)
val port_at : plan -> switch_id:int -> int

(** [is_protected plan switch_id] — does the plan carry a residue at this
    switch (so a modulo forward of a deflected packet is a driven
    deflection)? *)
val is_protected : plan -> int -> bool

(** [verify g plan] checks the invariant that every residue in the plan is
    recovered by the modulo operation ([<R>_{s_i} = p_i], Eq. 3); returns
    the list of violations (empty when the encoding is sound). *)
val verify : plan -> (int * int * int) list

(** A NewReno-style TCP bulk flow over the simulated KAR network — the
    stand-in for the paper's iperf measurements.

    The model implements the mechanisms that matter for the paper's
    question (how does deflection-induced packet disorder hurt TCP):
    slow start, congestion avoidance, SACK (up to three blocks per ACK,
    RFC 6675-style loss inference, hole-directed retransmission), NewReno
    fast recovery on partial ACKs, DSACK-driven reordering adaptation
    (spurious retransmissions raise the duplicate threshold and undo their
    window reduction, like Linux's tcp_reordering metric), RTO with
    exponential backoff and Karn's algorithm, and cumulative ACKs from an
    out-of-order receive buffer — the feature set of the Linux stacks the
    paper's Mininet hosts ran.
    The sender has unlimited data (iperf-style); the receiver ACKs every
    data packet, so reordered arrivals produce duplicate ACKs exactly as a
    real stack would. *)

module Net = Netsim.Net
module Engine = Netsim.Engine
module Packet = Netsim.Packet
module Karnet = Netsim.Karnet


module Z = Bignum.Z

(** Congestion-control algorithm: Reno AIMD or CUBIC (the Linux default of
    the paper's era; less aggressive backoff, time-based cubic growth). *)
type cc_algorithm =
  | Reno
  | Cubic

(** Segments carry 1460 data bytes plus 40 header bytes and ACKs are 40
    bytes; a flow starts with a 10-segment window and a 64-segment
    slow-start threshold; the RTO starts at 1 s and stays within
    [0.2, 60] s. *)
type config = {
  cc : cc_algorithm; (** default [Reno] *)
  max_window_segments : int; (** receiver window cap (256) *)
}

val default_config : config

(** Cumulative flow statistics. *)
type stats = {
  segments_sent : int;
  retransmissions : int;
  fast_retransmits : int;
  timeouts : int;
  acks_received : int;
  dupacks : int;
  bytes_acked : int; (** sender-side progress *)
  bytes_delivered : int; (** receiver-side in-order goodput *)
  reorder_events : int; (** data arrivals above the expected sequence *)
  max_reorder_gap : int; (** largest (arrived - expected) gap in segments *)
  spurious_rexmits : int; (** retransmissions proven unnecessary by DSACK *)
  dupthresh : int; (** adapted duplicate-ACK threshold (starts at 3) *)
}

type t

(** [start ~net ~id ~src ~dst ~fwd_route ~rev_route ~sampler ()] creates
    sender state at edge [src] and receiver state at edge [dst], and begins
    transmitting now.  Data packets carry
    [fwd_route]; ACKs carry [rev_route].  In-order deliveries are credited
    to [sampler].  The flow must be registered in a {!Stack} that owns the
    two edge nodes before any packet arrives. *)
val start :
  net:Net.t ->
  id:int ->
  src:Topo.Graph.node ->
  dst:Topo.Graph.node ->
  fwd_route:Z.t ->
  rev_route:Z.t ->
  ?config:config ->
  ?sampler:Sampler.t ->
  unit ->
  t

val id : t -> int
val stats : t -> stats

(** [stop f] halts transmission (pending timers are cancelled); in-flight
    packets still drain. *)
val stop : t -> unit

(** [set_fwd_route f route_id] changes the route ID stamped on subsequent
    data segments — the control-plane reroute action of the
    controller-notification baseline. *)
val set_fwd_route : t -> Z.t -> unit

(** Live congestion-control state, for debugging and the examples'
    commentary output. *)
type debug = {
  cwnd_bytes : float;
  ssthresh_bytes : float;
  srtt_s : float;
  rto_s : float;
  in_recovery : bool;
  flight_bytes : int;
}

val debug : t -> debug

(** Internal entry points used by {!Stack} when packets reach the edges. *)

val handle_data : t -> Net.t -> seq:int -> unit
val handle_ack :
  t -> Net.t -> ackno:int -> sacks:(int * int) list -> dsack:(int * int) option -> unit

(** Payload constructors (exposed for the packet-level tests). *)
type Packet.payload += Data of { flow : int; seq : int }

type Packet.payload +=
  | Ack of {
      flow : int;
      ackno : int;
      sacks : (int * int) list;
      dsack : (int * int) option;
    }
        (** cumulative ACK plus up to three SACK blocks [lo, hi) and an
            optional duplicate-arrival report (DSACK, RFC 2883) *)

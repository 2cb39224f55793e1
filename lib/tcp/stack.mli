(** Host-side plumbing: installs edge-node handlers that deliver TCP
    payloads to the right {!Flow} and re-encode stranded packets through the
    controller (the paper's second edge-handling approach). *)

module Net = Netsim.Net
module Engine = Netsim.Engine
module Packet = Netsim.Packet
module Karnet = Netsim.Karnet


type t

(** [create ~net ()] installs handlers on every edge node of the network's
    graph ({!Karnet.install_edge}: stranded packets are re-encoded after a
    1 ms controller round trip). *)
val create : net:Net.t -> unit -> t

(** [register stack flow] makes the stack dispatch [Data]/[Ack] payloads of
    this flow id to [flow]'s receiver and sender. *)
val register : t -> Flow.t -> unit

(** [unregister stack flow_id] stops dispatching this id (late packets are
    counted delivered but ignored). *)
val unregister : t -> int -> unit

module Net = Netsim.Net
module Engine = Netsim.Engine
module Packet = Netsim.Packet
module Karnet = Netsim.Karnet

module Graph = Topo.Graph

type t = {
  flows : (int, Flow.t) Hashtbl.t;
  controller : Kar.Controller.cache;
}

let dispatch stack net (packet : Packet.t) =
  match Packet.payload packet with
  | Flow.Data { flow; seq } ->
    (match Hashtbl.find_opt stack.flows flow with
     | Some f -> Flow.handle_data f net ~seq
     | None -> ())
  | Flow.Ack { flow; ackno; sacks; dsack } ->
    (match Hashtbl.find_opt stack.flows flow with
     | Some f -> Flow.handle_ack f net ~ackno ~sacks ~dsack
     | None -> ())
  | _ -> ()

let create ~net () =
  let stack =
    { flows = Hashtbl.create 16; controller = Kar.Controller.create_cache (Net.graph net) }
  in
  (* The re-encode cache is one hashtable shared by every edge node; on a
     sharded net different regions may re-encode concurrently, so the
     lookup is serialised.  Re-encodes are control-plane-rate (they model
     a controller round trip) and the result is a pure function of
     (node, dst), so the lock affects neither throughput nor
     determinism. *)
  let controller_lock = Mutex.create () in
  List.iter
    (fun v ->
      Karnet.install_edge net v
        ~reencode:(fun packet ->
          Mutex.lock controller_lock;
          Fun.protect
            ~finally:(fun () -> Mutex.unlock controller_lock)
            (fun () ->
              Kar.Controller.reencode stack.controller ~at:v
                ~dst:(Packet.dst packet)))
        ~receive:(fun net packet -> dispatch stack net packet)
        ())
    (Graph.edge_nodes (Net.graph net));
  stack

let register stack flow = Hashtbl.replace stack.flows (Flow.id flow) flow
let unregister stack flow_id = Hashtbl.remove stack.flows flow_id

module Graph = Topo.Graph

let log_src = Logs.Src.create "kar.switch" ~doc:"KAR switch forwarding decisions"

module Log = (val Logs.src_log log_src : Logs.LOG)

let install_switches ?plan net ~policy ~seed =
  let master = Util.Prng.of_int seed in
  let stuck_deflects = policy <> Kar.Policy.No_deflection in
  List.iter
    (fun v ->
      let rng = Util.Prng.split master in
      let switch_id = Graph.label (Net.graph net) v in
      (* The modulo answer for this switch, read straight off the packet's
         flat buffer: the switch's residue when a plan is threaded through
         (missing automatically for packets whose route ID the plan was
         not built from, e.g. after an edge re-encode), the in-place
         remainder kernel otherwise.  Resolved once per switch at install
         time, not per packet. *)
      let computed_for =
        match plan with
        | Some p -> Kar.Route.cached_port_flat p ~switch_id
        | None -> Kar.Policy.computed_port_flat ~switch_id
      in
      let degree = Graph.degree (Net.graph net) v in
      let handler net _node (packet : Packet.t) ~in_port =
        let hops = Packet.hops packet + 1 in
        Packet.set_hops packet hops;
        Net.count_hop net;
        if hops > Net.ttl net then
          Net.drop ~at:v ~in_port net packet Net.Ttl_exceeded
        else begin
          let was_deflected = Packet.deflected packet in
          let c = computed_for (Packet.bytes packet) in
          (* Steady state (computed port healthy, no recorder): everything
             from here to [Net.send] stays off the minor heap. *)
          let choice =
            Kar.Policy.choose policy ~computed:c ~in_port
              ~deflected:was_deflected ~degree ~live:(Net.live_mask net v)
          in
          let port =
            if choice < 0 then lnot choice
            else if choice > 0 then Kar.Policy.pick rng choice
            else -1
          in
          (* A take keeps the flag, a pick sets it; a stuck packet under a
             deflecting policy counts as deflected too (it tried). *)
          let deflected =
            if choice < 0 then was_deflected
            else choice > 0 || stuck_deflects || was_deflected
          in
          (* Flight recorder: classify the decision (computed forward,
             random deflection, or driven deflection) and tally it.  Only
             entered with a recorder attached, so the default path pays
             nothing beyond the [None] test. *)
          (match Net.recorder net with
           | Some r when port >= 0 ->
             let action =
               Trace.Event.decision_action ~via_computed:(choice < 0)
                 ~deflected:was_deflected
                 ~protected_:(Trace.Recorder.is_protected r switch_id)
                 ~policy:(Kar.Policy.to_string policy)
             in
             (match action with
              | Trace.Event.Deflect _ -> Net.note_deflect net v
              | Trace.Event.Drive -> Net.note_drive net v
              | _ -> ());
             Net.record_decision net ~switch:switch_id ~in_port ~out_port:port
               packet action
           | _ -> ());
          if deflected && not was_deflected then begin
            Net.count_deflection net;
            Log.debug (fun m ->
                m "SW%d deflected %a (in port %d)" switch_id Packet.pp packet
                  in_port);
            Packet.set_deflected packet true
          end;
          if port >= 0 then Net.send net ~from_node:v ~port packet
          else Net.drop ~at:v ~in_port net packet Net.No_route
        end
      in
      Net.set_node_handler net v handler)
    (Graph.core_nodes (Net.graph net))

type receive = Net.t -> Packet.t -> unit

(* The edge-to-controller round trip of a stranded-packet re-encode. *)
let reencode_delay_s = 1e-3

let install_edge net node ~reencode ~receive () =
  let handler net _node (packet : Packet.t) ~in_port =
    if Packet.dst packet = node then begin
      Net.delivered ~in_port net packet;
      receive net packet;
      (* Terminal point: the receive callback may read the packet but not
         keep it; the buffer goes back to the pool. *)
      Net.free net packet
    end
    else if in_port < 0 then begin
      (* Locally injected by the host stack: ship toward the core.  An edge
         node has exactly one (or more) uplink; use port 0. *)
      Net.send net ~from_node:node ~port:0 packet
    end
    else begin
      (* Stranded packet: ask the controller for a fresh route ID from this
         edge, then re-inject after the control-plane round trip. *)
      match reencode packet with
      | None -> Net.drop ~at:node ~in_port net packet Net.No_route
      | Some route_id ->
        Net.count_reencode net;
        Packet.set_route_id packet route_id;
        Packet.set_deflected packet false;
        Packet.set_reencoded packet (Packet.reencoded packet + 1);
        ignore
          (Engine.schedule_in (Net.engine net) reencode_delay_s (fun () ->
               (* Recorded at actual send time, so the event's place in the
                  trace matches its place in the FIFO order. *)
               Net.record_decision net
                 ~switch:(Graph.label (Net.graph net) node)
                 ~in_port:(-1) ~out_port:0 packet Trace.Event.Reencode;
               Net.send net ~from_node:node ~port:0 packet))
    end
  in
  Net.set_node_handler net node handler

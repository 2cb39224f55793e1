module Net = Netsim.Net
module Registry = Kar_obs.Registry
module Span = Kar_obs.Span

let arm net ?spans events =
  let n_links = Topo.Graph.n_links (Net.graph net) in
  List.iter
    (fun (e : Event.t) ->
      if e.Event.link < 0 || e.Event.link >= n_links then
        invalid_arg
          (Printf.sprintf
             "Driver.arm: event at t=%g names link %d, which is not in the graph \
              (it has %d links)"
             e.Event.at e.Event.link n_links))
    events;
  let reg = Net.registry net in
  let events_c = Registry.counter reg "scenario/events" in
  let flap_c = Registry.counter reg "scenario/flaps" in
  let repair_c = Registry.counter reg "scenario/repairs" in
  let down_g = Registry.gauge reg "scenario/links-down" in
  let max_down_g = Registry.gauge reg "scenario/max-links-down" in
  let down = ref 0 in
  List.iter
    (fun (e : Event.t) ->
      Net.schedule_admin net ~at:e.Event.at (fun () ->
          Registry.incr events_c;
          (match e.Event.action with
           | Event.Fail ->
             if Net.link_up net e.Event.link then begin
               Net.fail_link net e.Event.link;
               Registry.incr flap_c;
               incr down;
               Registry.set down_g !down;
               Registry.set_max max_down_g !down
             end
           | Event.Repair ->
             if not (Net.link_up net e.Event.link) then begin
               Net.repair_link net e.Event.link;
               Registry.incr repair_c;
               down := max 0 (!down - 1);
               Registry.set down_g !down
             end);
          Option.iter
            (fun s ->
              Span.record s Span.Scenario_event ~t0:e.Event.at ~t1:e.Event.at
                ~detail:e.Event.link)
            spans))
    (Event.normalize events)

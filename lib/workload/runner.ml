module Net = Netsim.Net
module Engine = Netsim.Engine
module Nets = Topo.Nets

type data_plane =
  | Kar of Kar.Policy.t
  | Fast_failover

type reaction = Baselines.Reaction.t =
  | Deflection
  | Controller_reroute of float
  | Ingress_failover of float

(* Every run samples goodput in 0.5 s bins and seeds the data plane (and,
   for iperf, the rep seeds) from 42; a rep's first 0.5 s is its
   slow-start ramp. *)
let bin_s = 0.5
let seed = 42
let warmup_s = 0.5

type timeline_config = {
  policy : data_plane;
  level : Kar.Controller.level;
  failure : Nets.failure_case option;
  pre_s : float;
  fail_s : float;
  post_s : float;
  reaction : reaction;
  detection_delay_s : float;
  tcp : Tcp.Flow.config;
}

let default_timeline =
  {
    policy = Kar Kar.Policy.Not_input_port;
    level = Kar.Controller.Full;
    failure = None;
    pre_s = 3.0;
    fail_s = 3.0;
    post_s = 3.0;
    reaction = Deflection;
    detection_delay_s = 0.0;
    tcp = Tcp.Flow.default_config;
  }

type timeline_result = {
  series : float list;
  mean_pre : float;
  mean_onset : float;
  mean_fail : float;
  mean_post : float;
  flow : Tcp.Flow.stats;
  net_deflections : int;
  net_reencodes : int;
  net_drops : int;
}

let install_data_plane ?plan net policy seed =
  match policy with
  | Kar p -> Netsim.Karnet.install_switches ?plan net ~policy:p ~seed
  | Fast_failover -> Baselines.Fast_failover.install net

let scenario_plans sc level =
  ( Kar.Controller.scenario_plan sc level,
    Kar.Controller.scenario_reverse_plan sc level )

(* Builds the net + stack + one flow; returns what the callers sample.
   [plans] lets replication loops encode the (immutable) route plans once
   and share them across reps and worker domains; only the simulator is
   re-seeded per rep. *)
let setup ?plans sc ~policy ~level ~seed ~sampler ?(detection_delay_s = 0.0)
    ?(tcp = Tcp.Flow.default_config) () =
  let engine = Engine.create () in
  let net =
    Net.create ~graph:sc.Nets.graph ~engine ~detection_delay_s ()
  in
  let fwd, rev =
    match plans with Some p -> p | None -> scenario_plans sc level
  in
  (* Threading the forward plan arms the switches' residue cache; packets
     on any other route ID (reverse traffic, edge re-encodes) miss it and
     take the remainder kernel, so decisions are unchanged. *)
  (match policy with
   | Kar _ -> install_data_plane ~plan:fwd net policy seed
   | Fast_failover -> install_data_plane net policy seed);
  let stack = Tcp.Stack.create ~net () in
  let flow =
    Tcp.Flow.start ~net ~id:1 ~src:sc.Nets.ingress ~dst:sc.Nets.egress
      ~fwd_route:fwd.Kar.Route.route_id ~rev_route:rev.Kar.Route.route_id
      ~config:tcp ~sampler ()
  in
  Tcp.Stack.register stack flow;
  (engine, net, flow)

let timeline sc config =
  let sampler = Tcp.Sampler.create ~bin_s () in
  let engine, net, flow =
    setup sc ~policy:config.policy ~level:config.level ~seed ~sampler
      ~detection_delay_s:config.detection_delay_s ~tcp:config.tcp ()
  in
  let fail_at = config.pre_s in
  let repair_at = config.pre_s +. config.fail_s in
  let t_end = repair_at +. config.post_s in
  (match config.failure with
   | None -> ()
   | Some fc ->
     (* a zero-length window would normalize to "fail and stay down" *)
     if not (config.fail_s > 0.0) then
       invalid_arg "Runner.timeline: fail_s must be positive";
     let link = fc.Nets.link in
     Kar_scenario.Driver.arm net
       Kar_scenario.Event.
         [
           { at = fail_at; action = Fail; link };
           { at = repair_at; action = Repair; link };
         ];
     Baselines.Reaction.arm net sc ~flow ~link ~at:fail_at ~repair_at
       config.reaction);
  Engine.run_until engine t_end;
  Tcp.Flow.stop flow;
  let stats = Net.stats net in
  let margin = Stdlib.min 0.5 (config.fail_s /. 6.0) in
  {
    series = Tcp.Sampler.series_mbps sampler ~until:t_end;
    mean_pre = Tcp.Sampler.mean_mbps sampler ~from_s:(config.pre_s /. 3.0) ~until:fail_at;
    mean_onset =
      Tcp.Sampler.mean_mbps sampler ~from_s:fail_at
        ~until:(Stdlib.min repair_at (fail_at +. 1.0));
    mean_fail =
      Tcp.Sampler.mean_mbps sampler ~from_s:(fail_at +. margin) ~until:repair_at;
    mean_post =
      Tcp.Sampler.mean_mbps sampler ~from_s:(repair_at +. margin) ~until:t_end;
    flow = Tcp.Flow.stats flow;
    net_deflections = stats.Net.deflections;
    net_reencodes = stats.Net.reencodes;
    net_drops =
      stats.Net.dropped_link_down + stats.Net.dropped_queue_full
      + stats.Net.dropped_no_route + stats.Net.dropped_ttl;
  }

type iperf_config = {
  policy : data_plane;
  level : Kar.Controller.level;
  failure : Nets.failure_case option;
  reps : int;
  rep_duration_s : float;
  tcp : Tcp.Flow.config;
}

let default_iperf =
  {
    policy = Kar Kar.Policy.Not_input_port;
    level = Kar.Controller.Partial;
    failure = None;
    reps = 10;
    rep_duration_s = 3.0;
    tcp = Tcp.Flow.default_config;
  }

let one_iperf ?plans sc config ~seed =
  let sampler = Tcp.Sampler.create ~bin_s:0.1 () in
  let engine, net, flow =
    setup ?plans sc ~policy:config.policy ~level:config.level ~seed ~sampler
      ~tcp:config.tcp ()
  in
  (match config.failure with
   | None -> ()
   | Some fc -> Net.fail_link net fc.Nets.link);
  Engine.run_until engine config.rep_duration_s;
  Tcp.Flow.stop flow;
  Tcp.Sampler.mean_mbps sampler ~from_s:warmup_s ~until:config.rep_duration_s

let rep_seed i = seed + (1000 * i)

(* Reps are independent simulations seeded by rep index, so they run on
   the domain pool; [Pool.map] restores sample order, which keeps the
   summary byte-identical at any [-j]. *)
let iperf_reps sc config =
  if config.reps <= 0 then invalid_arg "Runner.iperf_reps: reps must be positive";
  let plans = scenario_plans sc config.level in
  let seeds = Array.init config.reps rep_seed in
  let samples =
    Util.Pool.run seeds ~f:(fun ~idx:_ seed -> one_iperf ~plans sc config ~seed)
  in
  Util.Stats.summarize (Array.to_list samples)

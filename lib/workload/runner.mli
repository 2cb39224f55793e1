(** Scenario runners: the glue that turns a {!Topo.Nets.scenario} plus a
    policy / protection / failure choice into measured TCP numbers.  Every
    experiment and example builds on these two entry points:

    - {!timeline} — one long-lived flow across a failure window (the
      paper's Fig. 4 methodology: 30 s before, 30 s of failure, 30 s
      after, goodput sampled in bins);
    - {!iperf_reps} — independent repetitions of a short fresh-connection
      transfer with the failure active throughout (the paper's Fig. 5/7/8
      methodology: "we run the performance test iperf for 30 times,
      duration of 5 seconds each, to obtain a confidence interval of
      95%"). *)

module Net = Netsim.Net

(** Which data plane the core runs. *)
type data_plane =
  | Kar of Kar.Policy.t (** KAR switches with the given deflection policy *)
  | Fast_failover (** the stateful baseline from {!Baselines.Fast_failover} *)

(** What reacts to the failure besides the data plane itself: KAR's
    deflection alone, a controller reroute or a 1+1 ingress failover,
    each with its delay ({!Baselines.Reaction.t}). *)
type reaction = Baselines.Reaction.t =
  | Deflection
  | Controller_reroute of float
  | Ingress_failover of float

type timeline_config = {
  policy : data_plane;
  level : Kar.Controller.level;
  failure : Topo.Nets.failure_case option;
  pre_s : float; (** seconds before the failure *)
  fail_s : float; (** failure duration *)
  post_s : float; (** seconds after repair *)
  reaction : reaction;
  detection_delay_s : float;
      (** how long switches keep believing a dead link is alive (0 =
          oracle detection, the paper's implicit assumption) *)
  tcp : Tcp.Flow.config; (** sender/receiver parameters, incl. Reno/CUBIC *)
}

val default_timeline : timeline_config

type timeline_result = {
  series : float list; (** goodput per bin, Mb/s *)
  mean_pre : float;
  mean_onset : float;
      (** goodput over the first second after the failure hits — the
          reaction-time window where the schemes differ most *)
  mean_fail : float;
  mean_post : float;
  flow : Tcp.Flow.stats;
  net_deflections : int;
  net_reencodes : int;
  net_drops : int; (** all drop reasons summed *)
}

(** [timeline sc config] runs one long-lived flow ingress->egress, with
    the data plane seeded from 42 and goodput sampled in 0.5 s bins.  The
    failure window is armed through [Kar_scenario.Driver.arm] (a fail at
    [pre_s], a repair [fail_s] later) and [reaction] through
    {!Baselines.Reaction.arm}.
    @raise Invalid_argument if a failure is set and [fail_s] is not
    positive. *)
val timeline : Topo.Nets.scenario -> timeline_config -> timeline_result

type iperf_config = {
  policy : data_plane;
  level : Kar.Controller.level;
  failure : Topo.Nets.failure_case option; (** active for the whole run *)
  reps : int;
  rep_duration_s : float;
  tcp : Tcp.Flow.config;
}

val default_iperf : iperf_config

(** [scenario_plans sc level] is the (forward, reverse) route-plan pair
    for the scenario — the invariant per-rep work.  Replication loops
    encode it once and share the immutable plans across reps (and across
    the {!Util.Pool} worker domains); only the simulator is re-seeded. *)
val scenario_plans :
  Topo.Nets.scenario -> Kar.Controller.level -> Kar.Route.plan * Kar.Route.plan

(** [iperf_reps sc config] runs [reps] independent fresh-connection
    transfers and summarises their mean goodputs (the Fig. 5/7 bars).
    Reps run on the shared {!Util.Pool}; each rep is seeded by
    {!rep_seed}, so the summary is byte-identical at any pool size. *)
val iperf_reps : Topo.Nets.scenario -> iperf_config -> Util.Stats.summary

(** [rep_seed i] is the engine seed of repetition [i], [42 + 1000 i] —
    derived from the rep index alone, never from execution order. *)
val rep_seed : int -> int

(** [one_iperf sc config ~seed] is a single repetition's mean goodput in
    Mb/s, excluding its first 0.5 s (the slow-start ramp).  [plans]
    shares pre-encoded route plans (see {!scenario_plans}). *)
val one_iperf :
  ?plans:Kar.Route.plan * Kar.Route.plan ->
  Topo.Nets.scenario -> iperf_config -> seed:int -> float

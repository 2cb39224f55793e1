(** Beyond the paper: KAR vs the three baselines under sustained
    instability — the same deterministic {!Kar_scenario} event stream
    driven through both planes.

    Data plane: a CBR flow rides each technique (KAR full protection
    under NIP, stateful fast failover, controller reroute, 1+1 ingress
    failover) while the scenario fails and repairs links; we report
    delivery ratio, deflections and re-encodes.  Control plane: the
    identical stream replays through {!Kar_service.Server} as its
    failure schedule; we report p99, stale-serve rate, plans computed
    and epochs — replan-storm pressure under churn rather than a
    one-shot event. *)

type schedule = [ `Flap | `Regional | `Adversarial ]

val schedule_name : schedule -> string

(** The canonical [--scenario] spec string per schedule (fixed seeds). *)
val spec_for : schedule -> string

(** The canonical event stream for a paper topology: {!spec_for} parsed
    and generated with the scenario's ingress/egress as the tracked
    adversarial pair. *)
val events_for :
  Topo.Nets.scenario -> horizon:float -> schedule -> Kar_scenario.Event.t list

type technique = Kar | Fast_failover | Controller_reroute | One_plus_one

val technique_name : technique -> string
val all_techniques : technique list

type data_result = {
  sent : int;
  delivered : int;
  delivery_ratio : float;
  deflections : int;
  reencodes : int;
  dropped : int;
}

(** [run_data sc ~events ~technique ~rate_pps ~duration_s ~seed ()] — one
    CBR run under the event stream.  [regions > 1] runs the sharded
    simulator (identical results, exercised by the determinism tests);
    [recorder] attaches a flight recorder (flushed before return). *)
val run_data :
  Topo.Nets.scenario ->
  events:Kar_scenario.Event.t list ->
  technique:technique ->
  ?regions:int ->
  ?recorder:Trace.Recorder.t ->
  rate_pps:int ->
  duration_s:float ->
  seed:int ->
  unit ->
  data_result

(** [run_control g ~events ~requests ~rate ~seed] serves a workload with
    the stream as the failure schedule. *)
val run_control :
  Topo.Graph.t ->
  events:Kar_scenario.Event.t list ->
  requests:int ->
  rate:float ->
  seed:int ->
  Kar_service.Server.report

(** The golden-fixture stream: net15 under the canonical flap spec,
    horizon 3 s, rendered as JSONL lines. *)
val fixture_lines : unit -> string

val to_string : ?profile:Profile.t -> ?metrics:bool -> unit -> string

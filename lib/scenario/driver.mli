(** Feed an event stream into the packet simulator.

    Events are applied through {!Netsim.Net.schedule_admin}, so on a
    sharded net they land at epoch barriers in the global single-threaded
    context — scenario runs stay byte-identical at any [--regions] and
    any [-j], and on solo nets they degrade to ordinary engine events.

    Arming registers [scenario/*] instrumentation on the net's registry
    (so call it once per net): the [scenario/events] counter (events
    delivered), [scenario/flaps] (effective down transitions),
    [scenario/repairs] (effective up transitions), and the
    [scenario/links-down] / [scenario/max-links-down] gauges.  Events
    that would not change liveness (failing a dead link, repairing a
    live one) are counted as delivered but applied as no-ops, matching
    the generator's well-formed-stream guarantee.

    With [?spans], each applied event records one
    {!Kar_obs.Span.Scenario_event} span ([detail] = link id).

    @raise Invalid_argument before anything is scheduled or registered when
    an event names a link id outside [\[0, Graph.n_links)]; the message
    names the id and the link count. *)

val arm : Netsim.Net.t -> ?spans:Kar_obs.Span.t -> Event.t list -> unit

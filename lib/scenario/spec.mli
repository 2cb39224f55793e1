(** Scenario specifications: the parsed form of the [--scenario] CLI
    string, one constructor per failure model.

    Grammar (all key=value fields optional, shown with defaults):

    - [flap:links=4,period=0.5,duty=0.4,seed=7] — [links] independently
      flapping core links; each cycles down for [duty * period] seconds
      out of every [period], with a per-link random phase.
    - [regional:groups=3,mtbf=0.6,mttr=0.25,seed=7] — the graph is cut
      into [groups] shared-risk regions ({!Topo.Partition}); whole
      regions fail together at exponential inter-arrival [mtbf] and
      repair [mttr] later.
    - [adversarial:k=2,period=0.5,hold=0.45,level=full] — every
      [period] the adversary replans the tracked flows on the surviving
      topology, scores links by how many plan residues depend on them,
      and greedily fails the top scorers (up to [k] concurrently, each
      held down for [hold] seconds), never disconnecting a tracked pair.
    - [events:fail@T=A-B,repair@T=A-B,fail@T=#ID] — an explicit event
      list by endpoint labels ([A-B]) or raw link id ([#ID]); the
      degenerate scenario [kar_serve]'s [--fail-at]/[--repair-at] and
      [kar_sim]'s [--fail]/[--fail-at]/[--fail-for] flags compile to
      (see {!Gen.compile}). *)

type link_ref = Id of int | Between of int * int

type t =
  | Flap of { links : int; period : float; duty : float; seed : int }
  | Regional of { groups : int; mtbf : float; mttr : float; seed : int }
  | Adversarial of {
      k : int;
      period : float;
      hold : float;
      level : Kar.Controller.level;
    }
  | Events of (float * Event.action * link_ref) list

val parse : string -> (t, string) result

(** Round-trips through {!parse}. *)
val to_string : t -> string

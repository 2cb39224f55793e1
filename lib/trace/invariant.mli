(** Trace replay and invariant checking.

    [check] replays a flight-recorder trace and verifies the five KAR
    simulation invariants:

    + {b driven-loop}: once a packet is driven (a [Drive] event), no switch
      repeats on its modulo-forwarded path until it is deflected again —
      the paper's loop-freedom claim for driven deflections (Eq. 4).
    + {b conservation}: every packet has exactly one [Inject], at most one
      terminal ([Deliver]/[Drop]), and no events after its terminal; with
      [~drained:true], every injected packet must have reached a terminal
      (injected = delivered + dropped, zero in flight).
    + {b ttl}: the remaining hop budget strictly decreases over the
      injection and every forwarding decision, and every recorded value
      fits the wire header's 8-bit TTL field ([0 <= ttl <= 255]).
    + {b fifo}: for each outgoing queue [(switch, out_port)], packets
      arrive at the next hop in the order they were sent.
    + {b delivery}: with [~expect_delivery:true], every injected packet has
      a [Deliver] event (the full-protection resilience claim, Fig. 5/7).

    The checker needs only the event list — no topology or plan — so it can
    run on a live recorder, a parsed JSONL file, or a synthetic trace. *)

type violation = {
  invariant : string; (** driven-loop | conservation | ttl | fifo | delivery *)
  uid : int; (** offending packet, [-1] if not packet-specific *)
  detail : string;
}

val pp_violation : Format.formatter -> violation -> unit

(** [check ?expect_delivery ?drained ?truncated events] returns all
    violations found (empty list = trace is clean). Events may be given in
    any order; they are replayed by sequence number.

    [~truncated:true] declares the trace a suffix (the recorder ring
    overwrote older events): packets whose stream no longer starts with
    their [Inject] then skip the birth-counting checks (exactly-one inject,
    drain, delivery), which are unsound on a suffix — the order-local
    checks still apply. All three flags default to [false]. *)
val check :
  ?expect_delivery:bool ->
  ?drained:bool ->
  ?truncated:bool ->
  Event.t list ->
  violation list

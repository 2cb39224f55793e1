(** Discrete-event simulation engine: a monotone virtual clock and a binary
    heap of timestamped events.  Replaces the wall-clock of the paper's
    Mininet emulation with a deterministic, reproducible timeline.

    The heap is flat.  Each queued event's ordering keys sit in heap order
    in unboxed arrays (three float arrays for [time], [sched] and [sched2],
    int arrays for [seq] and a slot index), so a sift step moves floats and
    ints and never passes the write barrier.  The payload lives in a slot,
    recycled through a free list: either a thunk, or a packet arrival — a
    per-channel {!arrival} handler, the packet and an int tag — which the
    network schedules without allocating a closure.  An {!event} handle is
    an immediate int naming (slot, slot generation, engine).

    A {!lane} is a FIFO of events whose keys are pushed in order, such as
    one channel's arrivals: only its head sits in the heap, and when the
    head fires its successor takes its place with one sift-down instead
    of a pop and a push.  A push whose key is below its lane's tail goes
    straight into the heap, so lanes never change which event fires
    next. *)

type t

(** A handle for cancelling a scheduled event. *)
type event [@@immediate]

(** A lane of one engine (see above).  A lane belongs to the engine that
    made it: another engine refuses it if it has fewer lanes, and
    otherwise takes it for one of its own, which keeps the order of
    events but may cost them their place in a lane. *)
type lane [@@immediate]

(** A packet-arrival handler, called as [h packet tag] with the packet and
    the int tag it was scheduled with.  The network builds one per channel
    and tags each arrival with the channel's epoch. *)
type arrival = Packet.t -> int -> unit

(** [create ()] makes an engine with the clock at [0.0]. *)
val create : unit -> t

(** [now e] is the current virtual time in seconds. *)
val now : t -> float

(** [schedule_at e t f] runs [f] at absolute time [t].
    @raise Invalid_argument if [t] is NaN or in the past. *)
val schedule_at : t -> float -> (unit -> unit) -> event

(** [lane e] makes a new, empty lane on [e]. *)
val lane : t -> lane

(** [schedule_lane_at e l t f] runs [f] at absolute time [t], keyed like
    {!schedule_at}, and queues it on lane [l].  It returns no handle:
    lane events cannot be cancelled.
    @raise Invalid_argument if [t] is NaN or in the past, or if [l] is
    beyond [e]'s lanes. *)
val schedule_lane_at : t -> lane -> float -> (unit -> unit) -> unit

(** [schedule_in e dt f] runs [f] after [dt >= 0] seconds.
    @raise Invalid_argument if [dt] is NaN or negative. *)
val schedule_in : t -> float -> (unit -> unit) -> event

(** [schedule_keyed e ~time ~sched ~sched2 f] schedules [f] at [time]
    with an explicit determinism key.  Events fire in
    [(time, sched, sched2, seq)] order: [sched] is the virtual time the
    event was scheduled at and [sched2] the scheduling event's own
    [sched] — one causal level deeper, disambiguating ties between
    lock-stepped streams.  {!schedule_at} uses
    [sched = now e, sched2 = sched_now e]; on a single engine both extra
    keys are monotone in [seq], so the order reduces to classic
    (time, seq) FIFO.  The sharded net uses explicit keys so a
    cross-region arrival sorts against local events exactly where the
    serial engine would have fired it.  No past-time check — the caller
    (the barrier loop) guarantees [time] is beyond every region's
    committed horizon.
    @raise Invalid_argument if [time] is NaN. *)
val schedule_keyed :
  t -> time:float -> sched:float -> sched2:float -> (unit -> unit) -> event

(** [schedule_arrival e l dt h packet tag] calls [h packet tag] after
    [dt >= 0] seconds, keyed like {!schedule_in}, and queues it on lane
    [l].  It stores the three values in a slot instead of a closure, so
    scheduling an arrival allocates nothing beyond the boxed [dt].
    Arrivals cannot be cancelled: the handler checks the tag instead.
    @raise Invalid_argument if [dt] is NaN or negative, or if [l] is
    beyond [e]'s lanes. *)
val schedule_arrival : t -> lane -> float -> arrival -> Packet.t -> int -> unit

(** [schedule_arrival_keyed e ~time ~sched ~sched2 h packet tag] is
    {!schedule_arrival} with an explicit key, as {!schedule_keyed}, and
    on no lane.
    @raise Invalid_argument if [time] is NaN. *)
val schedule_arrival_keyed :
  t ->
  time:float ->
  sched:float ->
  sched2:float ->
  arrival ->
  Packet.t ->
  int ->
  unit

(** [cancel e ev] prevents the pending event [ev] of [e] from firing.
    A no-op on an event that already ran or was cancelled: the handle's
    slot generation no longer matches, so a handle whose slot a later
    event reuses cancels nothing (generations wrap after 2{^26} reuses of
    one slot).  Cancelled events are purged from the heap in bulk once
    they outnumber the live ones, so long runs that cancel many timers
    (e.g. TCP retransmits) do not bloat the heap.
    @raise Invalid_argument if [ev] was scheduled on another engine
    (engine ids repeat every 4096 engines, so this check can miss). *)
val cancel : t -> event -> unit

(** [run e] processes events in timestamp order (FIFO among equal
    timestamps) until the queue empties or {!stop} is called. *)
val run : t -> unit

(** [run_until e t] processes events with timestamp [<= t], then sets the
    clock to [t].
    @raise Invalid_argument if [t] is NaN. *)
val run_until : t -> float -> unit

(** [run_before e t] processes events with timestamp strictly [< t] and
    leaves the clock on the last event run: the epoch half of
    {!run_until}, letting a barrier inject time-[t] events before the
    epoch containing [t] executes.  Use {!advance_clock} to commit the
    horizon afterwards.
    @raise Invalid_argument if [t] is NaN. *)
val run_before : t -> float -> unit

(** Timestamp of the next live event, if any (cancelled events are
    skimmed).  Lets the sharded scheduler fast-forward idle regions. *)
val next_time : t -> float option

(** [advance_clock e t] moves the clock forward to [t] (never backward). *)
val advance_clock : t -> float -> unit

(** Determinism key ([sched]) of the event currently executing — the
    virtual time at which it was scheduled.  Meaningful only inside a
    callback; region trace buffers capture it to merge-sort records. *)
val sched_now : t -> float

(** Second-level key ([sched2]) of the event currently executing. *)
val sched2_now : t -> float

(** [set_context_sched e ~sched ~sched2] overrides the executing-context
    keys: subsequent {!schedule_at}/{!schedule_in} calls hand out
    [sched2 = sched], and {!sched_now}/{!sched2_now} read the pair.  The
    sharded barrier sets it before running an admin action, so events the
    action schedules (and records it emits) carry the key the serial
    engine would have given them. *)
val set_context_sched : t -> sched:float -> sched2:float -> unit

(** [stop e] makes {!run} return after the current callback. *)
val stop : t -> unit

(** [pending e] is the number of queued (uncancelled) events, in the heap
    or waiting in a lane.  O(1): the engine counts cancellations instead
    of scanning the heap. *)
val pending : t -> int

(** [processed e] counts callbacks run so far (for bench reporting). *)
val processed : t -> int

(** [heap_peak e] is the high-watermark count of queued events — in the
    heap or waiting in a lane, including cancelled ones still awaiting
    purge — an engine queue-depth gauge for the metrics registry. *)
val heap_peak : t -> int

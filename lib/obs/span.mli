(** Virtual-clock spans for the control plane, recorded into a
    fixed-record binary ring in the style of [Trace.Binary].

    Each record is 25 bytes — kind tag (u8), detail (i64), start and end
    virtual times (exact IEEE-754 bits, f64 LE) — written into a
    preallocated [Bytes.t] ring that overwrites its oldest records when
    full.  Recording boxes only the two [Int64.bits_of_float] timestamp
    conversions; spans are control-plane-rate events (plan compiles, batch
    dispatches, epoch invalidations), not per-packet events, so this is
    acceptable. *)

type kind =
  | Plan_compile  (** one plan computed on a modelled worker *)
  | Batch_dispatch  (** a batcher flush: dispatch to last completion *)
  | Epoch_invalidate  (** a cache epoch bump (instantaneous) *)
  | Verify_sweep  (** one verifier sweep unit *)
  | Snapshot  (** a metrics snapshot emission (instantaneous) *)
  | Scenario_event
      (** one scenario fail/repair event applied to a net
          ({!Kar_scenario}); detail = link id *)

val kind_to_string : kind -> string

type t

(** [create ?capacity ()] makes a ring retaining the last [capacity]
    spans (default 4096). *)
val create : ?capacity:int -> unit -> t

(** [record t kind ~t0 ~t1 ~detail] appends a span.  [detail] is a
    kind-specific integer (batch size, unit index, link id, ...). *)
val record : t -> kind -> t0:float -> t1:float -> detail:int -> unit

(** Total spans ever recorded (including overwritten ones). *)
val recorded : t -> int

(** Spans lost to ring overwrite. *)
val overwritten : t -> int

type span = { kind : kind; t0 : float; t1 : float; detail : int }

(** Retained spans, oldest first. *)
val contents : t -> span list

(** One-line JSONL rendering, ["%.9g"] timestamps (matching the trace
    sinks). *)
val span_to_jsonl : span -> string

(** Per-kind count / total-duration summary table. *)
val summary : t -> string

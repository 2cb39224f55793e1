(** Serving-layer event stream: one compact record per control-plane step,
    mirroring the data plane's flight recorder ({!Trace.Event}) — same
    one-line JSON rendering with a stable field order and the same [%.9g]
    timestamp format, so service traces diff and replay the same way packet
    traces do.

    The stream is the subsystem's determinism witness: a seeded workload
    served at any pool width must produce byte-identical event sequences
    (the committed golden fixture asserts exactly this). *)

(** How a request's cache lookup resolved.  [Stale] is a miss caused by
    epoch invalidation: an entry was present but encoded against an older
    topology version. *)
type outcome =
  | Hit
  | Miss
  | Stale

val outcome_to_string : outcome -> string

type t =
  | Request of {
      seq : int; (** workload sequence number *)
      t : float; (** virtual arrival time, seconds *)
      src : int; (** source edge node label *)
      dst : int; (** destination edge node label *)
      level : string; (** protection level short name *)
      policy : string; (** deflection policy short name *)
      outcome : outcome;
    }
  | Dispatch of {
      t : float;
      batch : int; (** batch sequence number *)
      size : int; (** distinct keys in the batch *)
    }
  | Complete of {
      t : float; (** virtual completion time under the planner model *)
      batch : int;
      src : int;
      dst : int;
      ok : bool; (** false: no route exists under the current topology *)
      stale : bool; (** plan outlived its epoch; served but not cached *)
    }
  | Epoch of {
      t : float;
      epoch : int; (** the new topology version *)
      cause : string; (** "fail SW7-SW13" / "repair ..." style slug *)
    }

(** One-line JSON rendering, stable field order; the [--trace] and
    golden-fixture format. *)
val to_jsonl : t -> string

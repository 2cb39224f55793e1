type outcome =
  | Hit
  | Miss
  | Stale

let outcome_to_string = function
  | Hit -> "hit"
  | Miss -> "miss"
  | Stale -> "stale"

type t =
  | Request of {
      seq : int;
      t : float;
      src : int;
      dst : int;
      level : string;
      policy : string;
      outcome : outcome;
    }
  | Dispatch of { t : float; batch : int; size : int }
  | Complete of {
      t : float;
      batch : int;
      src : int;
      dst : int;
      ok : bool;
      stale : bool;
    }
  | Epoch of { t : float; epoch : int; cause : string }

(* %.9g keeps virtual timestamps byte-stable without printing noise digits —
   the same convention as Trace.Event.to_jsonl. *)
let to_jsonl = function
  | Request r ->
    Printf.sprintf
      {|{"ev":"req","seq":%d,"t":%.9g,"src":%d,"dst":%d,"level":"%s","policy":"%s","outcome":"%s"}|}
      r.seq r.t r.src r.dst r.level r.policy (outcome_to_string r.outcome)
  | Dispatch d ->
    Printf.sprintf {|{"ev":"dispatch","t":%.9g,"batch":%d,"size":%d}|} d.t
      d.batch d.size
  | Complete c ->
    Printf.sprintf
      {|{"ev":"complete","t":%.9g,"batch":%d,"src":%d,"dst":%d,"ok":%b,"stale":%b}|}
      c.t c.batch c.src c.dst c.ok c.stale
  | Epoch e ->
    Printf.sprintf {|{"ev":"epoch","t":%.9g,"epoch":%d,"cause":"%s"}|} e.t
      e.epoch e.cause

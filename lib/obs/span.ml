type kind =
  | Plan_compile
  | Batch_dispatch
  | Epoch_invalidate
  | Verify_sweep
  | Snapshot
  | Scenario_event

let kind_to_string = function
  | Plan_compile -> "plan-compile"
  | Batch_dispatch -> "batch-dispatch"
  | Epoch_invalidate -> "epoch-invalidate"
  | Verify_sweep -> "verify-sweep"
  | Snapshot -> "snapshot"
  | Scenario_event -> "scenario-event"

let tag_of_kind = function
  | Plan_compile -> 0
  | Batch_dispatch -> 1
  | Epoch_invalidate -> 2
  | Verify_sweep -> 3
  | Snapshot -> 4
  | Scenario_event -> 5

let kind_of_tag = function
  | 0 -> Plan_compile
  | 1 -> Batch_dispatch
  | 2 -> Epoch_invalidate
  | 3 -> Verify_sweep
  | 4 -> Snapshot
  | 5 -> Scenario_event
  | t -> invalid_arg (Printf.sprintf "Span: bad tag %d" t)

(* record layout: [0] kind u8 | [1..8] detail i64 LE | [9..16] t0 bits LE
   | [17..24] t1 bits LE *)
let record_len = 25

type t = {
  ring : Bytes.t;
  capacity : int; (* in records *)
  mutable count : int; (* total ever recorded *)
}

let create ?(capacity = 4096) () =
  if capacity < 1 then invalid_arg "Span.create: capacity must be >= 1";
  { ring = Bytes.make (capacity * record_len) '\000'; capacity; count = 0 }

let record t kind ~t0 ~t1 ~detail =
  let off = t.count mod t.capacity * record_len in
  Bytes.unsafe_set t.ring off (Char.unsafe_chr (tag_of_kind kind));
  Bytes.set_int64_le t.ring (off + 1) (Int64.of_int detail);
  Bytes.set_int64_le t.ring (off + 9) (Int64.bits_of_float t0);
  Bytes.set_int64_le t.ring (off + 17) (Int64.bits_of_float t1);
  t.count <- t.count + 1

let recorded t = t.count
let overwritten t = if t.count > t.capacity then t.count - t.capacity else 0

type span = { kind : kind; t0 : float; t1 : float; detail : int }

let read_at t slot =
  let off = slot * record_len in
  {
    kind = kind_of_tag (Char.code (Bytes.get t.ring off));
    detail = Int64.to_int (Bytes.get_int64_le t.ring (off + 1));
    t0 = Int64.float_of_bits (Bytes.get_int64_le t.ring (off + 9));
    t1 = Int64.float_of_bits (Bytes.get_int64_le t.ring (off + 17));
  }

let contents t =
  let retained = if t.count < t.capacity then t.count else t.capacity in
  let first = t.count - retained in
  List.init retained (fun i -> read_at t ((first + i) mod t.capacity))

let span_to_jsonl s =
  Printf.sprintf
    {|{"span":"%s","t0":%.9g,"t1":%.9g,"detail":%d}|}
    (kind_to_string s.kind) s.t0 s.t1 s.detail

let summary t =
  let kinds =
    [ Plan_compile; Batch_dispatch; Epoch_invalidate; Verify_sweep; Snapshot;
      Scenario_event ]
  in
  let spans = contents t in
  let rows =
    List.filter_map
      (fun k ->
        let matching = List.filter (fun s -> s.kind = k) spans in
        match matching with
        | [] -> None
        | _ ->
          let n = List.length matching in
          let total =
            List.fold_left (fun acc s -> acc +. (s.t1 -. s.t0)) 0.0 matching
          in
          Some [ kind_to_string k; string_of_int n; Printf.sprintf "%.6f" total ])
      kinds
  in
  let header =
    Printf.sprintf "spans (last %d of %d, %d overwritten)"
      (List.length spans) t.count (overwritten t)
  in
  match rows with
  | [] -> header ^ ": none\n"
  | _ ->
    header ^ "\n"
    ^ Util.Texttab.render ~header:[ "kind"; "count"; "total-s" ] rows

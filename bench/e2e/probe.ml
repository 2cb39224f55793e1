(* Wall-clock spans recorded around the benchmark's calls into the
   libraries.  Nothing inside lib/ is instrumented: every span opens and
   closes in the benchmark's own code, so a span measures the whole call
   into a layer, and a layer's self time is its span minus the spans it
   contains.

   Recording is single-domain and allocation-free: durations go into
   preallocated int arrays and one Kar_obs.Registry histogram per span
   name, and raw spans into a bounded buffer that keeps the first
   [capacity] spans of a pass (the setup and the start of the run), plus
   the pass's outermost spans, for the trace export.  When tracing is off,
   [enter]/[leave] are one branch. *)

module Registry = Kar_obs.Registry

type span =
  | Setup
  | Controller_plan
  | Scenario_gen
  | Driver_arm
  | Workload_gen
  | Verifier_prepare
  | Run
  | Net_inject
  | Karnet_reencode
  | Batcher_plan
  | Verifier_verify

let all =
  [|
    Setup; Controller_plan; Scenario_gen; Driver_arm; Workload_gen;
    Verifier_prepare; Run; Net_inject; Karnet_reencode; Batcher_plan;
    Verifier_verify;
  |]

let index = function
  | Setup -> 0
  | Controller_plan -> 1
  | Scenario_gen -> 2
  | Driver_arm -> 3
  | Workload_gen -> 4
  | Verifier_prepare -> 5
  | Run -> 6
  | Net_inject -> 7
  | Karnet_reencode -> 8
  | Batcher_plan -> 9
  | Verifier_verify -> 10

let name = function
  | Setup -> "setup"
  | Controller_plan -> "controller.plan"
  | Scenario_gen -> "scenario.gen"
  | Driver_arm -> "driver.arm"
  | Workload_gen -> "workload.gen"
  | Verifier_prepare -> "verifier.prepare"
  | Run -> "run"
  | Net_inject -> "net.inject"
  | Karnet_reencode -> "karnet.reencode"
  | Batcher_plan -> "batcher.plan"
  | Verifier_verify -> "verifier.verify"

let n = Array.length all

let[@inline] now_ns () = Int64.to_int (Monotonic_clock.now ())
let now_s () = float_of_int (now_ns ()) *. 1e-9

let on = ref false
let count = Array.make n 0
let incl = Array.make n 0
let child = Array.make n 0
let hist = ref [||]

let max_depth = 8
let stack_id = Array.make max_depth 0
let stack_t0 = Array.make max_depth 0
let stack_child = Array.make max_depth 0
let depth = ref 0

(* Past [capacity], only the outermost spans are kept, in two reserved
   slots: a pass has exactly two, [setup] and [run]. *)
let capacity = 1 lsl 16
let slots = capacity + 2
let buf_id = Array.make slots 0
let buf_t0 = Array.make slots 0
let buf_t1 = Array.make slots 0
let buf_len = ref 0
let buf_dropped = ref 0

(* [start ~traced] clears every tally and turns recording on or off for
   the next pass. *)
let start ~traced =
  on := traced;
  Array.fill count 0 n 0;
  Array.fill incl 0 n 0;
  Array.fill child 0 n 0;
  depth := 0;
  buf_len := 0;
  buf_dropped := 0;
  let r = Registry.create () in
  hist := Array.map (fun s -> Registry.histogram r (name s ^ "-ns")) all

let stop () = on := false

let enter s =
  if !on then begin
    let d = !depth in
    stack_id.(d) <- index s;
    stack_child.(d) <- 0;
    depth := d + 1;
    stack_t0.(d) <- now_ns ()
  end

let leave () =
  if !on then begin
    let t1 = now_ns () in
    let d = !depth - 1 in
    depth := d;
    let id = stack_id.(d) and t0 = stack_t0.(d) in
    let dur = t1 - t0 in
    count.(id) <- count.(id) + 1;
    incl.(id) <- incl.(id) + dur;
    child.(id) <- child.(id) + stack_child.(d);
    if d > 0 then stack_child.(d - 1) <- stack_child.(d - 1) + dur;
    Registry.observe !hist.(id) dur;
    let i = !buf_len in
    if i < capacity || (d = 0 && i < slots) then begin
      buf_id.(i) <- id;
      buf_t0.(i) <- t0;
      buf_t1.(i) <- t1;
      buf_len := i + 1
    end
    else incr buf_dropped
  end

let span s f =
  enter s;
  match f () with
  | v ->
    leave ();
    v
  | exception e ->
    leave ();
    raise e

(* --- reading a finished pass --- *)

(* What one traced pass recorded, per span name in [all] order. *)
type snapshot = {
  calls : int array;
  incl_ns : int array;
  self_ns : int array;
  p50_ns : int array;
  p99_ns : int array;
}

let snapshot () =
  {
    calls = Array.copy count;
    incl_ns = Array.copy incl;
    self_ns = Array.init n (fun i -> incl.(i) - child.(i));
    p50_ns = Array.map (fun h -> Registry.h_quantile h 50.0) !hist;
    p99_ns = Array.map (fun h -> Registry.h_quantile h 99.0) !hist;
  }

let mean_ns snap s =
  let i = index s in
  if snap.calls.(i) = 0 then 0.0
  else float_of_int snap.incl_ns.(i) /. float_of_int snap.calls.(i)

let self_sum_ns snap = Array.fold_left ( + ) 0 snap.self_ns

let render_self_table snap ~wall_s =
  let wall_ns = wall_s *. 1e9 in
  let rows =
    List.filter_map
      (fun s ->
        let i = index s in
        if snap.calls.(i) = 0 then None
        else
          Some
            [
              name s;
              string_of_int snap.calls.(i);
              Printf.sprintf "%.3f" (float_of_int snap.incl_ns.(i) /. 1e6);
              Printf.sprintf "%.3f" (float_of_int snap.self_ns.(i) /. 1e6);
              Printf.sprintf "%.1f%%"
                (100.0 *. float_of_int snap.self_ns.(i) /. wall_ns);
            ])
      (Array.to_list all)
  in
  let sum = float_of_int (self_sum_ns snap) in
  Util.Texttab.render
    ~header:[ "span"; "calls"; "total ms"; "self ms"; "self/wall" ]
    (rows
    @ [
        [
          "sum of self";
          "";
          "";
          Printf.sprintf "%.3f" (sum /. 1e6);
          Printf.sprintf "%.1f%%" (100.0 *. sum /. wall_ns);
        ];
      ])

(* The buffered spans as trace-event JSON ("X" complete events, times in
   microseconds from the first span), which Perfetto and chrome://tracing
   open directly. *)
let trace_events ~workload =
  let len = !buf_len in
  let origin =
    let m = ref max_int in
    for i = 0 to len - 1 do
      if buf_t0.(i) < !m then m := buf_t0.(i)
    done;
    !m
  in
  let b = Buffer.create (len * 96) in
  Buffer.add_string b "{\"traceEvents\":[\n";
  for i = 0 to len - 1 do
    let s = all.(buf_id.(i)) in
    let layer =
      match String.index_opt (name s) '.' with
      | Some k -> String.sub (name s) 0 k
      | None -> "bench"
    in
    Printf.bprintf b
      "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1}%s\n"
      (name s) layer
      (float_of_int (buf_t0.(i) - origin) /. 1e3)
      (float_of_int (buf_t1.(i) - buf_t0.(i)) /. 1e3)
      (if i = len - 1 then "" else ",")
  done;
  Printf.bprintf b
    "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"workload\":\"%s\",\"spans_dropped\":%d}}\n"
    workload !buf_dropped;
  Buffer.contents b

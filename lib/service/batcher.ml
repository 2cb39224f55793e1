module Engine = Netsim.Engine
module Registry = Kar_obs.Registry
module Span = Kar_obs.Span

type ('k, 'v) pending = { mutable waiters : (('v, exn) result -> unit) list }

type ('k, 'v) t = {
  engine : Engine.t;
  batch_size : int;
  max_delay : float;
  workers : int;
  dispatch_overhead : float;
  pool : Util.Pool.t option;
  on_dispatch : batch:int -> keys:'k array -> unit;
  on_key_complete : batch:int -> key:'k -> ('v, exn) result -> unit;
  compute : 'k -> 'v;
  cost : 'k -> ('v, exn) result -> float;
  (* keys queued or in flight; single-flight subscription point *)
  pending : ('k, ('k, 'v) pending) Hashtbl.t;
  mutable queue : 'k list; (* open batch, reversed accumulation order *)
  mutable n_queued : int;
  mutable n_inflight : int;
  mutable n_waiting : int;
  mutable timer : Engine.event option;
  mutable n_batches : int;
  batches_c : Registry.counter;
  computed_c : Registry.counter;
  coalesced_c : Registry.counter;
  max_batch_g : Registry.gauge;
  spans : Span.t option;
}

let create ~engine ~batch_size ~max_delay ~workers ~dispatch_overhead ?pool
    ?registry ?spans
    ?(on_dispatch = fun ~batch:_ ~keys:_ -> ())
    ?(on_key_complete = fun ~batch:_ ~key:_ _ -> ()) ~compute ~cost () =
  if batch_size < 1 then invalid_arg "Batcher.create: batch_size must be >= 1";
  if max_delay < 0.0 then invalid_arg "Batcher.create: negative max_delay";
  if workers < 1 then invalid_arg "Batcher.create: workers must be >= 1";
  let r = match registry with Some r -> r | None -> Registry.create () in
  (* explicit registration order: it is the snapshot column order *)
  let batches_c = Registry.counter r "svc/batches" in
  let computed_c = Registry.counter r "svc/planned" in
  let coalesced_c = Registry.counter r "svc/coalesced" in
  let max_batch_g = Registry.gauge r "svc/max-batch" in
  {
    engine;
    batch_size;
    max_delay;
    workers;
    dispatch_overhead;
    pool;
    on_dispatch;
    on_key_complete;
    compute;
    cost;
    pending = Hashtbl.create 64;
    queue = [];
    n_queued = 0;
    n_inflight = 0;
    n_waiting = 0;
    timer = None;
    n_batches = 0;
    batches_c;
    computed_c;
    coalesced_c;
    max_batch_g;
    spans;
  }

let complete t ~batch key result =
  match Hashtbl.find_opt t.pending key with
  | None -> () (* unreachable: completions fire exactly once per key *)
  | Some p ->
    Hashtbl.remove t.pending key;
    t.n_inflight <- t.n_inflight - 1;
    t.on_key_complete ~batch ~key result;
    let waiters = List.rev p.waiters in
    t.n_waiting <- t.n_waiting - List.length waiters;
    List.iter (fun ready -> ready result) waiters

let dispatch t =
  (match t.timer with
   | Some ev ->
     Engine.cancel t.engine ev;
     t.timer <- None
   | None -> ());
  let keys = Array.of_list (List.rev t.queue) in
  t.queue <- [];
  t.n_queued <- 0;
  let n = Array.length keys in
  if n > 0 then begin
    t.n_batches <- t.n_batches + 1;
    Registry.incr t.batches_c;
    let batch = t.n_batches in
    Registry.set_max t.max_batch_g n;
    t.n_inflight <- t.n_inflight + n;
    t.on_dispatch ~batch ~keys;
    (* the real computation: one pool map over the batch's distinct keys *)
    let f ~idx:_ k = try Ok (t.compute k) with e -> Error e in
    let results =
      match t.pool with
      | Some p -> Util.Pool.map p keys ~f
      | None -> Util.Pool.run keys ~f
    in
    Registry.add t.computed_c n;
    (* the modelled timeline: round-robin the keys over [workers] planner
       threads; completion = dispatch + overhead + the thread's cumulative
       cost.  Independent of the pool width by construction. *)
    let now = Engine.now t.engine in
    let worker_busy = Array.make t.workers 0.0 in
    let last_completion = ref now in
    Array.iteri
      (fun i key ->
        let result = results.(i) in
        let w = i mod t.workers in
        let start = now +. t.dispatch_overhead +. worker_busy.(w) in
        worker_busy.(w) <- worker_busy.(w) +. t.cost key result;
        let at = now +. t.dispatch_overhead +. worker_busy.(w) in
        if at > !last_completion then last_completion := at;
        (match t.spans with
         | Some s -> Span.record s Span.Plan_compile ~t0:start ~t1:at ~detail:batch
         | None -> ());
        ignore
          (Engine.schedule_at t.engine at (fun () ->
               complete t ~batch key result)))
      keys;
    match t.spans with
    | Some s ->
      Span.record s Span.Batch_dispatch ~t0:now ~t1:!last_completion ~detail:n
    | None -> ()
  end

let request t key ~ready =
  t.n_waiting <- t.n_waiting + 1;
  match Hashtbl.find_opt t.pending key with
  | Some p ->
    (* single flight: whether queued or already computing, subscribe only *)
    Registry.incr t.coalesced_c;
    p.waiters <- ready :: p.waiters
  | None ->
    Hashtbl.add t.pending key { waiters = [ ready ] };
    t.queue <- key :: t.queue;
    t.n_queued <- t.n_queued + 1;
    if t.n_queued >= t.batch_size then dispatch t
    else if t.timer = None then
      t.timer <-
        Some
          (Engine.schedule_in t.engine t.max_delay (fun () ->
               t.timer <- None;
               if t.n_queued > 0 then dispatch t))

let queued t = t.n_queued
let in_flight t = t.n_inflight
let waiting t = t.n_waiting
let batches t = Registry.value t.batches_c
let computed t = Registry.value t.computed_c
let coalesced t = Registry.value t.coalesced_c
let max_batch t = Registry.gauge_value t.max_batch_g

exception Task_failed of { index : int; exn : exn }

(* One map in flight.  Tasks are claimed by fetch-and-add on [next]; a
   worker that drew an index past [total] is done with this job.  [gen]
   distinguishes successive jobs so a worker never re-enters one it
   already drained. *)
type job = {
  gen : int;
  total : int;
  next : int Atomic.t;
  run_task : int -> unit; (* never raises: failures are recorded inside *)
}

type t = {
  jobs : int;
  mutex : Mutex.t;
  work : Condition.t; (* workers wait here for the next job *)
  idle : Condition.t; (* the caller waits here for stragglers *)
  mutable current : job option;
  mutable running : int; (* workers currently draining [current] *)
  mutable gen : int;
  mutable stopping : bool;
  mutable workers : unit Domain.t list;
}

(* True while this domain is executing a pool task: a [map] issued from
   such a context would deadlock waiting on workers that are themselves
   inside tasks, so it falls back to the serial loop instead. *)
let in_task : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let drain job =
  let rec go () =
    let i = Atomic.fetch_and_add job.next 1 in
    if i < job.total then begin
      job.run_task i;
      go ()
    end
  in
  go ()

let worker t =
  Domain.DLS.set in_task true;
  let last = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    Mutex.lock t.mutex;
    let job = ref None in
    while
      (not t.stopping)
      &&
      match t.current with
      | Some j when j.gen <> !last ->
        job := Some j;
        false
      | _ ->
        Condition.wait t.work t.mutex;
        true
    do
      ()
    done;
    match !job with
    | None ->
      Mutex.unlock t.mutex;
      continue_ := false
    | Some j ->
      t.running <- t.running + 1;
      Mutex.unlock t.mutex;
      drain j;
      Mutex.lock t.mutex;
      t.running <- t.running - 1;
      if t.running = 0 then Condition.signal t.idle;
      Mutex.unlock t.mutex;
      last := j.gen
  done

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      work = Condition.create ();
      idle = Condition.create ();
      current = None;
      running = 0;
      gen = 0;
      stopping = false;
      workers = [];
    }
  in
  t.workers <- List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker t));
  t

let jobs t = t.jobs

let shutdown t =
  Mutex.lock t.mutex;
  let to_join = if t.stopping then [] else t.workers in
  t.stopping <- true;
  t.workers <- [];
  Condition.broadcast t.work;
  Mutex.unlock t.mutex;
  List.iter Domain.join to_join

let serial_map input ~f =
  let n = Array.length input in
  let task i =
    try f ~idx:i input.(i)
    with exn -> raise (Task_failed { index = i; exn })
  in
  if n = 0 then [||]
  else begin
    let out = Array.make n (task 0) in
    for i = 1 to n - 1 do
      out.(i) <- task i
    done;
    out
  end

let map t input ~f =
  let n = Array.length input in
  if n <= 1 || t.jobs = 1 || t.stopping || Domain.DLS.get in_task then
    serial_map input ~f
  else begin
    let results = Array.make n None in
    let failed = Atomic.make None in
    let next = Atomic.make 0 in
    let run_task i =
      match f ~idx:i input.(i) with
      | r -> results.(i) <- Some r
      | exception exn ->
        ignore (Atomic.compare_and_set failed None (Some (i, exn)));
        (* Stop further claims; tasks already claimed finish normally.
           [total] is the least value no claim can start from, so no
           index is ever handed out twice. *)
        Atomic.set next n
    in
    Mutex.lock t.mutex;
    t.gen <- t.gen + 1;
    let job = { gen = t.gen; total = n; next; run_task } in
    t.current <- Some job;
    Condition.broadcast t.work;
    Mutex.unlock t.mutex;
    (* The caller is a worker too. *)
    Domain.DLS.set in_task true;
    drain job;
    Domain.DLS.set in_task false;
    Mutex.lock t.mutex;
    while t.running > 0 do
      Condition.wait t.idle t.mutex
    done;
    t.current <- None;
    Mutex.unlock t.mutex;
    match Atomic.get failed with
    | Some (index, exn) -> raise (Task_failed { index; exn })
    | None ->
      Array.map (function Some v -> v | None -> assert false) results
  end

(* --- the shared pool --- *)

let max_jobs = 16

let default_jobs () =
  let requested =
    match Sys.getenv_opt "KAR_JOBS" with
    | None -> None
    | Some s ->
      (match int_of_string_opt (String.trim s) with
       | Some n when n >= 1 -> Some n
       | Some _ | None -> None)
  in
  match requested with
  | Some n -> min n max_jobs
  | None -> min (Domain.recommended_domain_count ()) max_jobs

let shared : t option ref = ref None
let at_exit_registered = ref false

let register_cleanup () =
  if not !at_exit_registered then begin
    at_exit_registered := true;
    at_exit (fun () ->
        match !shared with
        | Some p ->
          shared := None;
          shutdown p
        | None -> ())
  end

let shared_pool () =
  match !shared with
  | Some p -> p
  | None ->
    let p = create ~jobs:(default_jobs ()) in
    shared := Some p;
    register_cleanup ();
    p

let set_jobs n =
  let n = max 1 (min n max_jobs) in
  (match !shared with
   | Some p when jobs p = n -> ()
   | existing ->
     (match existing with Some p -> shutdown p | None -> ());
     shared := Some (create ~jobs:n);
     register_cleanup ())

let current_jobs () =
  match !shared with Some p -> p.jobs | None -> default_jobs ()

let run input ~f = map (shared_pool ()) input ~f

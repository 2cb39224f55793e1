type arrival = Packet.t -> int -> unit

(* An event handle is one immediate int: the slot in the low [slot_bits],
   the slot's generation above it, and the engine's id on top. *)
type event = int

(* A lane is an index into [lane_tail]. *)
type lane = int

let slot_bits = 24
let gen_bits = 26
let id_bits = 12
let slot_mask = (1 lsl slot_bits) - 1
let gen_mask = (1 lsl gen_bits) - 1
let id_mask = (1 lsl id_bits) - 1

(* What a queued slot holds.  [k_lane] is or'ed onto [k_thunk] or
   [k_arrival] while the slot is queued on a lane. *)
let k_thunk = 0
let k_arrival = 1
let k_cancelled = 2
let k_lane = 4

type t = {
  (* The heap: entry [i]'s ordering keys and slot, in heap order.  All
     five arrays share one capacity. *)
  mutable time : float array;
  mutable sched : float array; (* clock at scheduling time *)
  mutable sched2 : float array; (* the scheduling event's own [sched] *)
  mutable seq : int array;
  mutable slot : int array;
  mutable size : int;
  (* Slots.  A queued event owns one slot, in the heap or waiting in a
     lane, so the free list is empty exactly when every slot is queued.
     [kind], [gen] and [next_free] share the heap's capacity; the payload
     arrays grow on first use, filled with the value at hand, so no dummy
     packet or closure is needed.  A freed slot keeps its last arrival (a
     per-channel handler and a packet) until reused. *)
  mutable kind : int array;
  mutable gen : int array;
  mutable next_free : int array;
  mutable free : int; (* free-list head, -1 when empty *)
  mutable thunk : (unit -> unit) array;
  mutable arrival : arrival array;
  mutable packet : Packet.t array;
  mutable tag : int array; (* the int handed to the arrival *)
  (* Lanes.  A lane is a FIFO of events pushed in key order; only its head
     sits in the heap.  Its entries are linked through [next_free], which
     a queued slot does not otherwise use: each holds its successor's
     slot, and the tail [lnot lane], so every link is a slot exactly when
     it is non-negative.  A slot queued on a lane carries [k_lane] in its
     kind and its keys in the [slot_*] arrays, read when a push is
     compared with the lane's tail and when the slot is promoted into
     the heap.  These slot-indexed arrays are made at the first push onto
     a lane and then grow with the slots. *)
  mutable slot_time : float array;
  mutable slot_sched : float array;
  mutable slot_sched2 : float array;
  mutable slot_seq : int array;
  mutable lane_tail : int array; (* per lane: last slot, -1 when empty *)
  mutable n_lanes : int;
  mutable lane_waiting : int; (* lane entries behind their head *)
  id : int;
  mutable clock : float; (* boxed: [now] hands out this box *)
  cur : float array; (* [| sched; sched2 |] of the executing event *)
  mutable next_seq : int;
  mutable stopped : bool;
  mutable done_count : int;
  mutable cancelled_in_heap : int;
  mutable heap_peak : int;
}

let next_id = Atomic.make 0

let create () =
  {
    time = [||];
    sched = [||];
    sched2 = [||];
    seq = [||];
    slot = [||];
    size = 0;
    kind = [||];
    gen = [||];
    next_free = [||];
    free = -1;
    thunk = [||];
    arrival = [||];
    packet = [||];
    tag = [||];
    slot_time = [||];
    slot_sched = [||];
    slot_sched2 = [||];
    slot_seq = [||];
    lane_tail = [||];
    n_lanes = 0;
    lane_waiting = 0;
    id = Atomic.fetch_and_add next_id 1 land id_mask;
    clock = 0.0;
    cur = [| 0.0; 0.0 |];
    next_seq = 0;
    stopped = false;
    done_count = 0;
    cancelled_in_heap = 0;
    heap_peak = 0;
  }

let now e = e.clock

(* Events fire in (time, sched, sched2, seq) order.  Within one engine the
   clock never regresses and everything is scheduled at the current clock,
   so [sched] is monotone in [seq] and this order equals the classic
   (time, seq) FIFO.  The extra keys matter when several region engines
   are merged: ties between a locally-scheduled event and a cross-region
   arrival then resolve by *scheduling time* — the same order the serial
   engine's global seq would have produced.  [seq] is unique, so the
   order is total and any valid heap fires the same sequence. *)
let[@inline] key_before e t s s2 q j =
  let tj = Array.unsafe_get e.time j in
  t < tj
  || t = tj
     &&
     let sj = Array.unsafe_get e.sched j in
     s < sj
     || s = sj
        &&
        let s2j = Array.unsafe_get e.sched2 j in
        s2 < s2j || (s2 = s2j && q < Array.unsafe_get e.seq j)

let[@inline] entry_before e i j =
  key_before e (Array.unsafe_get e.time i) (Array.unsafe_get e.sched i)
    (Array.unsafe_get e.sched2 i) (Array.unsafe_get e.seq i) j

let[@inline] move e ~src ~dst =
  Array.unsafe_set e.time dst (Array.unsafe_get e.time src);
  Array.unsafe_set e.sched dst (Array.unsafe_get e.sched src);
  Array.unsafe_set e.sched2 dst (Array.unsafe_get e.sched2 src);
  Array.unsafe_set e.seq dst (Array.unsafe_get e.seq src);
  Array.unsafe_set e.slot dst (Array.unsafe_get e.slot src)

(* Sift the entry at [start] down to its place, moving the hole instead
   of swapping. *)
let sift_down e start =
  let t = Array.unsafe_get e.time start
  and s = Array.unsafe_get e.sched start
  and s2 = Array.unsafe_get e.sched2 start
  and q = Array.unsafe_get e.seq start
  and sl = Array.unsafe_get e.slot start in
  let i = ref start and continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= e.size then continue := false
    else begin
      let r = l + 1 in
      let c = if r < e.size && entry_before e r l then r else l in
      if key_before e t s s2 q c then continue := false
      else begin
        move e ~src:c ~dst:!i;
        i := c
      end
    end
  done;
  let i = !i in
  Array.unsafe_set e.time i t;
  Array.unsafe_set e.sched i s;
  Array.unsafe_set e.sched2 i s2;
  Array.unsafe_set e.seq i q;
  Array.unsafe_set e.slot i sl

let grow a cap x =
  let b = Array.make cap x in
  Array.blit a 0 b 0 (Array.length a);
  b

(* The lane arrays start with room for [lane_min_slots] slots, more than
   the minor heap takes (256 words), so no size of them allocates minor
   words: a run allocates exactly the minor words it would without
   lanes. *)
let lane_min_slots = 512

let grow_lane_slots e cap =
  e.slot_time <- grow e.slot_time cap 0.0;
  e.slot_sched <- grow e.slot_sched cap 0.0;
  e.slot_sched2 <- grow e.slot_sched2 cap 0.0;
  e.slot_seq <- grow e.slot_seq cap 0

(* Hand out a free slot, doubling the capacity when every slot is
   queued. *)
let claim e =
  if e.free < 0 then begin
    let old = Array.length e.seq in
    if old > slot_mask then
      failwith
        (Printf.sprintf "Engine: more than %d events queued" (slot_mask + 1));
    let cap = min (max 64 (2 * old)) (slot_mask + 1) in
    e.time <- grow e.time cap 0.0;
    e.sched <- grow e.sched cap 0.0;
    e.sched2 <- grow e.sched2 cap 0.0;
    e.seq <- grow e.seq cap 0;
    e.slot <- grow e.slot cap 0;
    e.kind <- grow e.kind cap 0;
    e.gen <- grow e.gen cap 0;
    e.next_free <- grow e.next_free cap 0;
    let lane_cap = Array.length e.slot_seq in
    if lane_cap > 0 && cap > lane_cap then grow_lane_slots e cap;
    for s = cap - 1 downto old do
      Array.unsafe_set e.next_free s e.free;
      e.free <- s
    done
  end;
  let s = e.free in
  e.free <- Array.unsafe_get e.next_free s;
  s

(* A slot leaves the heap: bump its generation so outstanding handles go
   stale, and push it on the free list. *)
let release e s =
  Array.unsafe_set e.gen s ((Array.unsafe_get e.gen s + 1) land gen_mask);
  Array.unsafe_set e.next_free s e.free;
  e.free <- s

let nop () = ()

let set_thunk e s f =
  if s >= Array.length e.thunk then
    e.thunk <- grow e.thunk (Array.length e.seq) f;
  Array.unsafe_set e.kind s k_thunk;
  Array.unsafe_set e.thunk s f

let set_arrival e s h p tag =
  if s >= Array.length e.packet then begin
    let cap = Array.length e.seq in
    e.arrival <- grow e.arrival cap h;
    e.packet <- grow e.packet cap p;
    e.tag <- grow e.tag cap 0
  end;
  Array.unsafe_set e.kind s k_arrival;
  Array.unsafe_set e.arrival s h;
  Array.unsafe_set e.packet s p;
  Array.unsafe_set e.tag s tag

(* [heap_peak] and the purge count every queued event, in the heap or
   waiting in a lane: the same count a heap holding every event has. *)
let[@inline] queued e = e.size + e.lane_waiting

(* Insert slot [sl] under key (time, sched, sched2, next seq), sifting the
   hole up.  Inlined into every entry point so the float keys stay
   unboxed. *)
let[@inline] enqueue e time sched sched2 sl =
  let q = e.next_seq in
  e.next_seq <- q + 1;
  let i = ref e.size in
  e.size <- e.size + 1;
  if queued e > e.heap_peak then e.heap_peak <- queued e;
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    if key_before e time sched sched2 q p then begin
      move e ~src:p ~dst:!i;
      i := p
    end
    else continue := false
  done;
  let i = !i in
  Array.unsafe_set e.time i time;
  Array.unsafe_set e.sched i sched;
  Array.unsafe_set e.sched2 i sched2;
  Array.unsafe_set e.seq i q;
  Array.unsafe_set e.slot i sl

let lane e =
  let l = e.n_lanes in
  if l = Array.length e.lane_tail then
    e.lane_tail <- grow e.lane_tail (max 64 (2 * l)) (-1);
  e.n_lanes <- l + 1;
  l

(* Make slot [sl] the tail of lane [l]. *)
let[@inline] join_lane e l time sched sched2 q sl =
  Array.unsafe_set e.kind sl (Array.unsafe_get e.kind sl lor k_lane);
  Array.unsafe_set e.slot_time sl time;
  Array.unsafe_set e.slot_sched sl sched;
  Array.unsafe_set e.slot_sched2 sl sched2;
  Array.unsafe_set e.slot_seq sl q;
  Array.unsafe_set e.next_free sl (lnot l);
  Array.unsafe_set e.lane_tail l sl

(* Does a push with key (time, sched, sched2, next seq) sort after the
   lane entry in slot [tl]?  Its seq is the larger, so equal times and
   scheduling keys count as after. *)
let[@inline] after_slot e time sched sched2 tl =
  let tt = Array.unsafe_get e.slot_time tl in
  time > tt
  || time = tt
     &&
     let ts = Array.unsafe_get e.slot_sched tl in
     sched > ts || (sched = ts && sched2 >= Array.unsafe_get e.slot_sched2 tl)

(* Push slot [sl] onto lane [l] under key (time, sched, sched2, next seq).
   A key at or after the lane's tail waits behind it, out of the heap.  A
   key before the tail goes into the heap as an ordinary entry: the lane
   stays sorted, so its head is its least key and the heap top is still
   the least queued key.  An empty lane's push becomes its head, in the
   heap. *)
let[@inline] enqueue_lane e l time sched sched2 sl =
  let tl = Array.unsafe_get e.lane_tail l in
  if tl >= 0 && after_slot e time sched sched2 tl then begin
    let q = e.next_seq in
    e.next_seq <- q + 1;
    join_lane e l time sched sched2 q sl;
    Array.unsafe_set e.next_free tl sl;
    e.lane_waiting <- e.lane_waiting + 1;
    if queued e > e.heap_peak then e.heap_peak <- queued e
  end
  else begin
    if tl < 0 then begin
      if Array.length e.slot_seq = 0 then
        grow_lane_slots e (max lane_min_slots (Array.length e.seq));
      join_lane e l time sched sched2 e.next_seq sl
    end;
    enqueue e time sched sched2 sl
  end

let handle e s =
  (e.id lsl (slot_bits + gen_bits))
  lor (Array.unsafe_get e.gen s lsl slot_bits)
  lor s

(* The two keyed entry points are inlined into the others, so their float
   arguments are never boxed inside this module. *)
let[@inline] schedule_keyed e ~time ~sched ~sched2 f =
  if Float.is_nan time then invalid_arg "Engine: event time is NaN";
  let s = claim e in
  set_thunk e s f;
  enqueue e time sched sched2 s;
  handle e s

let[@inline] schedule_arrival_keyed e ~time ~sched ~sched2 h p tag =
  if Float.is_nan time then invalid_arg "Engine: event time is NaN";
  let s = claim e in
  set_arrival e s h p tag;
  enqueue e time sched sched2 s

let check_time fn e t =
  if not (t >= e.clock) then
    invalid_arg
      (if Float.is_nan t then "Engine: event time is NaN"
       else Printf.sprintf "%s: time %g is before now (%g)" fn t e.clock)

let schedule_at e t f =
  check_time "Engine.schedule_at" e t;
  schedule_keyed e ~time:t ~sched:e.clock ~sched2:(Array.unsafe_get e.cur 0) f

(* A lane another engine made may lie beyond this one's lanes; one within
   them only shares a FIFO, which the tail check keeps in order. *)
let check_lane fn e l =
  if l >= e.n_lanes then
    invalid_arg (fn ^ ": the lane belongs to another engine")

let schedule_lane_at e l t f =
  check_lane "Engine.schedule_lane_at" e l;
  check_time "Engine.schedule_lane_at" e t;
  let s = claim e in
  set_thunk e s f;
  enqueue_lane e l t e.clock (Array.unsafe_get e.cur 0) s

let check_delay fn dt =
  if not (dt >= 0.0) then
    invalid_arg
      (if Float.is_nan dt then fn ^ ": delay is NaN" else fn ^ ": negative delay")

let schedule_in e dt f =
  check_delay "Engine.schedule_in" dt;
  schedule_keyed e ~time:(e.clock +. dt) ~sched:e.clock
    ~sched2:(Array.unsafe_get e.cur 0) f

let schedule_arrival e l dt h p tag =
  check_lane "Engine.schedule_arrival" e l;
  check_delay "Engine.schedule_arrival" dt;
  let s = claim e in
  set_arrival e s h p tag;
  enqueue_lane e l (e.clock +. dt) e.clock (Array.unsafe_get e.cur 0) s

(* Replace the heap top by the last entry. *)
let[@inline] drop_top e =
  let n = e.size - 1 in
  e.size <- n;
  if n > 0 then begin
    move e ~src:n ~dst:0;
    sift_down e 0
  end

(* Remove the heap top and return its slot (the caller reads its keys
   first).  The head of a lane gives its place to its successor, sifted
   down once; any other top gives it to the last heap entry.  Every
   removal of a top goes through here, and leaves the slot's kind without
   [k_lane]. *)
let pop_top e =
  let s = Array.unsafe_get e.slot 0 in
  let kind = Array.unsafe_get e.kind s in
  if kind < k_lane then drop_top e
  else begin
    Array.unsafe_set e.kind s (kind land lnot k_lane);
    let nx = Array.unsafe_get e.next_free s in
    if nx < 0 then begin
      Array.unsafe_set e.lane_tail (lnot nx) (-1);
      drop_top e
    end
    else begin
      e.lane_waiting <- e.lane_waiting - 1;
      Array.unsafe_set e.time 0 (Array.unsafe_get e.slot_time nx);
      Array.unsafe_set e.sched 0 (Array.unsafe_get e.slot_sched nx);
      Array.unsafe_set e.sched2 0 (Array.unsafe_get e.slot_sched2 nx);
      Array.unsafe_set e.seq 0 (Array.unsafe_get e.slot_seq nx);
      Array.unsafe_set e.slot 0 nx;
      sift_down e 0
    end
  end;
  s

(* Only purge heaps worth the O(n) rebuild; tiny heaps just pop the
   cancellations out. *)
let purge_min_size = 64

(* Compact out every cancelled event and re-establish the heap property
   with a bottom-up Floyd heapify. *)
let purge e =
  let live = ref 0 in
  for i = 0 to e.size - 1 do
    let s = Array.unsafe_get e.slot i in
    if Array.unsafe_get e.kind s = k_cancelled then release e s
    else begin
      if !live <> i then move e ~src:i ~dst:!live;
      incr live
    end
  done;
  e.size <- !live;
  e.cancelled_in_heap <- 0;
  for i = (e.size / 2) - 1 downto 0 do
    sift_down e i
  done

let cancel e ev =
  if ev lsr (slot_bits + gen_bits) <> e.id then
    invalid_arg "Engine.cancel: the event belongs to another engine";
  let s = ev land slot_mask in
  (* ids wrap after 2^12 engines, so bound the slot before reading it *)
  if
    s < Array.length e.gen
    && Array.unsafe_get e.gen s = (ev lsr slot_bits) land gen_mask
    && Array.unsafe_get e.kind s = k_thunk
  then begin
    Array.unsafe_set e.kind s k_cancelled;
    Array.unsafe_set e.thunk s nop;
    e.cancelled_in_heap <- e.cancelled_in_heap + 1;
    (* Long runs accumulate cancelled retransmit timers that bloat the
       heap and slow every sift; drop them all once they outnumber the
       live events. *)
    if queued e >= purge_min_size && e.cancelled_in_heap > queued e / 2 then
      purge e
  end

let step e =
  if e.size = 0 then false
  else begin
    let time = Array.unsafe_get e.time 0
    and sched = Array.unsafe_get e.sched 0
    and sched2 = Array.unsafe_get e.sched2 0 in
    let s = pop_top e in
    let kind = Array.unsafe_get e.kind s in
    if kind = k_cancelled then begin
      e.cancelled_in_heap <- e.cancelled_in_heap - 1;
      release e s
    end
    else begin
      e.clock <- time;
      Array.unsafe_set e.cur 0 sched;
      Array.unsafe_set e.cur 1 sched2;
      e.done_count <- e.done_count + 1;
      (* The slot is free before the payload runs, so the events it
         schedules can reuse it. *)
      if kind = k_thunk then begin
        let f = Array.unsafe_get e.thunk s in
        Array.unsafe_set e.thunk s nop;
        release e s;
        f ()
      end
      else begin
        let h = Array.unsafe_get e.arrival s
        and p = Array.unsafe_get e.packet s
        and a = Array.unsafe_get e.tag s in
        release e s;
        h p a
      end
    end;
    true
  end

let run e =
  e.stopped <- false;
  while (not e.stopped) && step e do
    ()
  done

let run_until e t =
  if Float.is_nan t then invalid_arg "Engine.run_until: time is NaN";
  e.stopped <- false;
  while (not e.stopped) && e.size > 0 && Array.unsafe_get e.time 0 <= t do
    ignore (step e)
  done;
  if (not e.stopped) && not (e.clock >= t) then e.clock <- t

(* Epoch half of [run_until]: strictly-before the horizon, and the clock
   is left on the last event run — the caller advances it explicitly
   with [advance_clock] once the whole barrier has committed. *)
let run_before e t =
  if Float.is_nan t then invalid_arg "Engine.run_before: time is NaN";
  while e.size > 0 && Array.unsafe_get e.time 0 < t do
    ignore (step e)
  done

let next_time e =
  (* Skim cancelled tops so an all-cancelled heap reads as idle. *)
  while
    e.size > 0
    && Array.unsafe_get e.kind (Array.unsafe_get e.slot 0) = k_cancelled
  do
    let s = pop_top e in
    e.cancelled_in_heap <- e.cancelled_in_heap - 1;
    release e s
  done;
  if e.size = 0 then None else Some e.time.(0)

let advance_clock e t = if t > e.clock then e.clock <- t

let sched_now e = e.cur.(0)
let sched2_now e = e.cur.(1)

let set_context_sched e ~sched ~sched2 =
  e.cur.(0) <- sched;
  e.cur.(1) <- sched2

let stop e = e.stopped <- true

let pending e = queued e - e.cancelled_in_heap

let processed e = e.done_count
let heap_peak e = e.heap_peak

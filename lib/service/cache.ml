(* Entries live in slots: parallel arrays of key, value, epoch and LRU
   links, where a link is a slot index and -1 is none.  [head] is the
   most-recently-used slot, [tail] the least; freed slots chain through
   [next].  [index] maps a key to its slot by linear probing over a power
   of two at most half full.  So a lookup, refresh, insert or evict is O(1)
   and a hit touches ints only.  The slot arrays double up to [cap] as
   entries arrive; [values] stays empty until the first put supplies a
   filler. *)

module Registry = Kar_obs.Registry

(* Counters are [svc/cache-*] registry cells; the epoch is mirrored into a
   gauge and occupancy sampled by a probe, so the serving layer's cache
   health shows up in every metrics snapshot for free. *)
type 'v t = {
  cap : int;
  mutable keys : int array;
  mutable values : 'v array;
  mutable born : int array; (* epoch the value was inserted under *)
  mutable prev : int array; (* toward head *)
  mutable next : int array; (* toward tail; the free chain too *)
  mutable index : int array; (* slot, or -1 for an empty cell *)
  mutable shift : int; (* 63 - log2 (Array.length index) *)
  mutable size : int;
  mutable fresh : int; (* slots below this have been handed out *)
  mutable free : int;
  mutable head : int;
  mutable tail : int;
  mutable now : int; (* current epoch *)
  hit_c : Registry.counter;
  miss_c : Registry.counter;
  stale_c : Registry.counter;
  evict_c : Registry.counter;
  epoch_g : Registry.gauge;
}

let create ?registry ~capacity () =
  if capacity < 1 then invalid_arg "Cache.create: capacity must be >= 1";
  let r = match registry with Some r -> r | None -> Registry.create () in
  (* explicit registration order: it is the snapshot column order *)
  let hit_c = Registry.counter r "svc/cache-hit" in
  let miss_c = Registry.counter r "svc/cache-miss" in
  let stale_c = Registry.counter r "svc/cache-stale" in
  let evict_c = Registry.counter r "svc/cache-evict" in
  let epoch_g = Registry.gauge r "svc/cache-epoch" in
  let t =
    {
      cap = capacity;
      keys = [||];
      values = [||];
      born = [||];
      prev = [||];
      next = [||];
      index = [| -1; -1 |];
      shift = 62;
      size = 0;
      fresh = 0;
      free = -1;
      head = -1;
      tail = -1;
      now = 0;
      hit_c;
      miss_c;
      stale_c;
      evict_c;
      epoch_g;
    }
  in
  Registry.probe r "svc/cache-size" (fun () -> t.size);
  t

let capacity t = t.cap
let epoch t = t.now

let bump_epoch t =
  t.now <- t.now + 1;
  Registry.set t.epoch_g t.now

(* Fibonacci hashing: the top bits of the key times 2^63 / phi. *)
let[@inline] home t k = (k * 0x4F1BBCDCBFA53E0B) lsr t.shift

(* The index cell holding [k]'s slot, or the empty cell where it would go. *)
let cell t k =
  let index = t.index in
  let mask = Array.length index - 1 in
  let i = ref (home t k) in
  while
    let s = Array.unsafe_get index !i in
    s >= 0 && Array.unsafe_get t.keys s <> k
  do
    i := (!i + 1) land mask
  done;
  !i

(* Backward-shift deletion: empty cell [i], then pull each later entry of
   the probe run back into the hole unless its home lies cyclically
   within (hole, entry]. *)
let unindex t i =
  let index = t.index in
  let mask = Array.length index - 1 in
  let hole = ref i in
  let j = ref ((i + 1) land mask) in
  index.(i) <- -1;
  while index.(!j) >= 0 do
    let s = index.(!j) in
    let h = home t t.keys.(s) in
    let stays =
      if !hole <= !j then !hole < h && h <= !j else !hole < h || h <= !j
    in
    if not stays then begin
      index.(!hole) <- s;
      index.(!j) <- -1;
      hole := !j
    end;
    j := (!j + 1) land mask
  done

let detach t s =
  let p = t.prev.(s) and n = t.next.(s) in
  if p >= 0 then t.next.(p) <- n else t.head <- n;
  if n >= 0 then t.prev.(n) <- p else t.tail <- p

let push_front t s =
  t.prev.(s) <- -1;
  t.next.(s) <- t.head;
  if t.head >= 0 then t.prev.(t.head) <- s else t.tail <- s;
  t.head <- s

let remove t s =
  detach t s;
  unindex t (cell t t.keys.(s));
  t.next.(s) <- t.free;
  t.free <- s;
  t.size <- t.size - 1

let lookup_miss = -1
let lookup_stale = -2

let lookup t k =
  let s = t.index.(cell t k) in
  if s < 0 then begin
    Registry.incr t.miss_c;
    lookup_miss
  end
  else if t.born.(s) = t.now then begin
    Registry.incr t.hit_c;
    if s <> t.head then begin
      detach t s;
      push_front t s
    end;
    s
  end
  else begin
    (* epoch moved on under this entry: drop it so it neither gets served
       nor occupies capacity a fresh plan needs *)
    Registry.incr t.stale_c;
    remove t s;
    lookup_stale
  end

let value t s = t.values.(s)

let evict_lru t =
  if t.tail >= 0 then begin
    remove t t.tail;
    Registry.incr t.evict_c
  end

(* Double the slot arrays (up to [cap]) and rebuild the index at twice
   their length, so the index stays at most half full. *)
let grow t v =
  let n = Array.length t.keys in
  let n' = Stdlib.min t.cap (Stdlib.max 8 (2 * n)) in
  let extend a fill =
    let a' = Array.make n' fill in
    Array.blit a 0 a' 0 n;
    a'
  in
  t.keys <- extend t.keys 0;
  t.values <- extend t.values v;
  t.born <- extend t.born 0;
  t.prev <- extend t.prev (-1);
  t.next <- extend t.next (-1);
  let bits = ref 1 in
  while 1 lsl !bits < 2 * n' do
    incr bits
  done;
  t.index <- Array.make (1 lsl !bits) (-1);
  t.shift <- 63 - !bits;
  let s = ref t.head in
  while !s >= 0 do
    t.index.(cell t t.keys.(!s)) <- !s;
    s := t.next.(!s)
  done

let take_slot t v =
  if t.free >= 0 then begin
    let s = t.free in
    t.free <- t.next.(s);
    s
  end
  else begin
    if t.fresh = Array.length t.keys then grow t v;
    let s = t.fresh in
    t.fresh <- s + 1;
    s
  end

let put t k v =
  let s = t.index.(cell t k) in
  if s >= 0 then begin
    t.values.(s) <- v;
    t.born.(s) <- t.now;
    detach t s;
    push_front t s
  end
  else begin
    while t.size >= t.cap do
      evict_lru t
    done;
    let s = take_slot t v in
    t.keys.(s) <- k;
    t.values.(s) <- v;
    t.born.(s) <- t.now;
    (* the cell again: eviction or growth may have moved the index *)
    t.index.(cell t k) <- s;
    t.size <- t.size + 1;
    push_front t s
  end

let hits t = Registry.value t.hit_c
let misses t = Registry.value t.miss_c
let stale t = Registry.value t.stale_c
let evictions t = Registry.value t.evict_c
let size t = t.size

let hit_ratio t =
  let total = hits t + misses t + stale t in
  if total = 0 then 0.0 else float_of_int (hits t) /. float_of_int total

module Graph = Topo.Graph

let log_src = Logs.Src.create "kar.netsim" ~doc:"KAR network simulator events"

module Log = (val Logs.src_log log_src : Logs.LOG)

type drop_reason =
  | Link_down
  | Queue_full
  | No_route
  | Ttl_exceeded

module Registry = Kar_obs.Registry

(* Immutable end-of-run snapshot over the registry counters; the live
   values are ordinary [netsim/*] registry cells. *)
type stats = {
  injected : int;
  delivered : int;
  dropped_link_down : int;
  dropped_queue_full : int;
  dropped_no_route : int;
  dropped_ttl : int;
  total_switch_hops : int;
  deflections : int;
  reencodes : int;
}

(* Handles for every hot-path counter: one unsafe int-array poke each, so
   the forwarding loop keeps its zero-minor-words property. *)
type counters = {
  c_injected : Registry.counter;
  c_delivered : Registry.counter;
  c_drop_link_down : Registry.counter;
  c_drop_queue_full : Registry.counter;
  c_drop_no_route : Registry.counter;
  c_drop_ttl : Registry.counter;
  c_switch_hops : Registry.counter;
  c_deflections : Registry.counter;
  c_reencodes : Registry.counter;
  g_queue_peak : Registry.gauge;
}

(* One direction of a link: a serialising transmitter behind a byte-bounded
   FIFO.  [dst] is the receiving node and [dst_port] its input port.  The
   transmitter is modelled by a free-at time ([busy_until], kept in the
   net-level float array so updating it per hop stays unboxed) instead of a
   busy flag + completion event: an idle channel forwards a packet with a
   single merged serialisation+propagation event, and only a backlogged
   channel schedules wake events to drain its queue. *)
type channel = {
  link_id : Graph.link_id;
  idx : int; (* index into [busy_until]: 2*link_id + direction *)
  dst : Graph.node;
  dst_port : int;
  rate_bps : float;
  delay_s : float;
  queue : Packet.t Queue.t;
  mutable queued_bytes : int;
  mutable wake_scheduled : bool;
  mutable epoch : int; (* bumped on failure: invalidates in-flight events *)
  owner_rid : int; (* region of the transmitting endpoint *)
  x_cut : bool; (* receiving endpoint lives in another region *)
  lane : Engine.lane;
      (* on the owner region's engine.  [transmit] starts a packet only
         once the previous one has left, so the channel's arrivals come in
         key order; the engine's heap takes the exceptions (a stale
         arrival outliving a fail and repair, a one-ulp rounding) *)
  mutable arrive : Engine.arrival;
      (* built once by [build] (it closes over the net), so scheduling an
         arrival allocates no closure *)
}

(* A packet crossing a region boundary: the flat buffer itself changes
   hands (zero-copy), together with the exact (time, sched) key the serial
   engine would have given its delivery event, so the receiving region can
   slot it into its timeline deterministically. *)
type handoff = {
  h_time : float;
  h_sched : float;
  h_sched2 : float;
  h_src : int; (* sending region *)
  h_ctr : int; (* per-region monotone counter: stable drain order *)
  h_epoch : int;
  h_ch : channel;
  h_packet : Packet.t;
}

(* A trace record buffered inside a region during an epoch.  At the
   barrier, all regions' buffers merge-sort on (vtime, sched, rid, ctr)
   and replay into the main recorder — (rid, ctr) preserves each region's
   exact engine order, so intra-region sequences (e.g. the FIFO drops of a
   failing queue) reproduce the serial trace byte for byte. *)
type tev = {
  tv_vtime : float;
  tv_sched : float;
  tv_sched2 : float;
  tv_rid : int;
  tv_ctr : int;
  tv_uid : int;
  tv_switch : int;
  tv_in : int;
  tv_out : int;
  tv_ttl : int;
  tv_action : Trace.Event.action;
}

(* Everything a region owns privately: its event heap, metrics shard,
   packet pool, trace buffer and one outbox per peer region.  In a solo
   net there is exactly one region and its engine/registry/counters/pool
   are the net's own (no indirection cost, bit-identical behaviour). *)
type region = {
  rid : int;
  r_engine : Engine.t;
  r_registry : Registry.t;
  r_counters : counters;
  r_pool : Packet.Pool.t;
  mutable r_tbuf : tev list; (* newest first *)
  mutable r_tctr : int;
  mutable r_octr : int;
  outboxes : handoff list array; (* newest first, indexed by dst region *)
  mutable r_mark : int; (* processed watermark for stall accounting *)
}

type t = {
  graph : Graph.t;
  queue_capacity_bytes : int;
  ttl : int;
  detection_delay_s : float;
  up : bool array; (* per link *)
  busy_until : float array; (* per channel; unboxed float array *)
  channels : channel array array; (* channels.(link).(dir) *)
  out_channel : channel array array; (* out_channel.(node).(port) *)
  handlers : handler option array;
  live : int array; (* per node: the live-port mask switches observe *)
  registry : Registry.t; (* the main (merged) registry *)
  counters : counters; (* main counter handles *)
  pool : Packet.Pool.t; (* main pool (the only pool when solo) *)
  mutable next_uid : int; (* the [fresh_uid] stream *)
  uid_ctr : int array; (* per-node [alloc] uid streams *)
  (* Observability: [None] recorder (the default) keeps the hot path
     event-free; per-switch deflect/drive tallies are only maintained while
     a recorder is attached (classification costs an extra modulo). *)
  mutable recorder : Trace.Recorder.t option;
  switch_deflections : int array; (* per node *)
  switch_drives : int array; (* per node *)
  link_queue_drops : int array; (* per channel (2*link+dir) *)
  (* Sharding state.  [solo] nets (legacy [create], or a 1-region
     partition) never touch any of it beyond [regions.(0)]. *)
  regions : region array;
  region_of_node : int array;
  solo : bool;
  lookahead : float; (* min cut-link delay; [infinity] when solo *)
  admin_lane : Engine.lane;
      (* a solo net's admin events, on its engine (unused when sharded) *)
  mutable in_admin : bool; (* true between epochs: barrier context *)
  mutable admin : (float * float * float * int * (unit -> unit)) list;
      (* (time, sched, sched2, seq, fn), sorted *)
  mutable admin_seq : int;
  c_epochs : Registry.counter;
  c_boundary : Registry.counter;
  c_stalls : Registry.counter;
  g_cut_ppm : Registry.gauge;
}

and handler = t -> Graph.node -> Packet.t -> in_port:int -> unit

(* Which region this domain is currently simulating.  Worker domains set
   it before running a region's epoch; the default 0 makes every solo net
   (and all setup-time code) resolve to the main context. *)
let cur_rid : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)

let[@inline] ctx net =
  if net.solo then net.regions.(0)
  else net.regions.(Domain.DLS.get cur_rid)

let make_counters r =
  (* explicit registration order: it is the snapshot column order *)
  let c_injected = Registry.counter r "netsim/injected" in
  let c_delivered = Registry.counter r "netsim/delivered" in
  let c_drop_link_down = Registry.counter r "netsim/drop-link-down" in
  let c_drop_queue_full = Registry.counter r "netsim/drop-queue-full" in
  let c_drop_no_route = Registry.counter r "netsim/drop-no-route" in
  let c_drop_ttl = Registry.counter r "netsim/drop-ttl" in
  let c_switch_hops = Registry.counter r "netsim/switch-hops" in
  let c_deflections = Registry.counter r "netsim/deflections" in
  let c_reencodes = Registry.counter r "netsim/reencodes" in
  let g_queue_peak = Registry.gauge r "netsim/queue-peak-bytes" in
  {
    c_injected;
    c_delivered;
    c_drop_link_down;
    c_drop_queue_full;
    c_drop_no_route;
    c_drop_ttl;
    c_switch_hops;
    c_deflections;
    c_reencodes;
    g_queue_peak;
  }

(* Sharding metrics live on the main registry only (the barrier loop is
   single-threaded); they read zero on solo nets but keep the snapshot
   schema identical across [--regions] values. *)
let make_shard_metrics r =
  ( Registry.counter r "netsim/epochs",
    Registry.counter r "netsim/region-boundary-packets",
    Registry.counter r "netsim/region-stalls",
    Registry.gauge r "topo/cut-edges-ppm" )

let build_channels graph ~engines ~region_of_node =
  let n_links = Graph.n_links graph in
  let channel_of link dir =
    let near = if dir = 0 then link.Graph.ep0 else link.Graph.ep1 in
    let far = if dir = 0 then link.Graph.ep1 else link.Graph.ep0 in
    let owner_rid = region_of_node.(near.Graph.node) in
    {
      link_id = link.Graph.id;
      idx = (2 * link.Graph.id) + dir;
      dst = far.Graph.node;
      dst_port = far.Graph.port;
      rate_bps = link.Graph.rate_bps;
      delay_s = link.Graph.delay_s;
      queue = Queue.create ();
      queued_bytes = 0;
      wake_scheduled = false;
      epoch = 0;
      owner_rid;
      x_cut = owner_rid <> region_of_node.(far.Graph.node);
      lane = Engine.lane engines.(owner_rid);
      arrive = (fun _ _ -> ());
    }
  in
  let channels =
    Array.init n_links (fun id ->
        let link = Graph.link graph id in
        [| channel_of link 0; channel_of link 1 |])
  in
  let out_channel =
    Array.init (Graph.n_nodes graph) (fun v ->
        Array.init (Graph.degree graph v) (fun p ->
            let link = Graph.link_at graph v p in
            let dir = if link.Graph.ep0.node = v then 0 else 1 in
            channels.(link.Graph.id).(dir)))
  in
  (channels, out_channel)

(* Every port of a core switch starts live; edge nodes keep 0 (nothing
   reads their mask).  Rejects switches too wide for an int mask. *)
let build_live ~who graph =
  Array.init (Graph.n_nodes graph) (fun v ->
      if Graph.is_core graph v then begin
        Kar.Policy.check_degree ~who graph v;
        (1 lsl Graph.degree graph v) - 1
      end
      else 0)

let graph net = net.graph
let engine net = (ctx net).r_engine
let registry net = net.registry
let n_regions net = Array.length net.regions
let region_of net node = net.region_of_node.(node)
let lookahead net = net.lookahead

let stats net =
  let c = net.counters in
  {
    injected = Registry.value c.c_injected;
    delivered = Registry.value c.c_delivered;
    dropped_link_down = Registry.value c.c_drop_link_down;
    dropped_queue_full = Registry.value c.c_drop_queue_full;
    dropped_no_route = Registry.value c.c_drop_no_route;
    dropped_ttl = Registry.value c.c_drop_ttl;
    total_switch_hops = Registry.value c.c_switch_hops;
    deflections = Registry.value c.c_deflections;
    reencodes = Registry.value c.c_reencodes;
  }

let ttl net = net.ttl

let set_recorder net r = net.recorder <- r
let recorder net = net.recorder
let note_deflect net v = net.switch_deflections.(v) <- net.switch_deflections.(v) + 1
let note_drive net v = net.switch_drives.(v) <- net.switch_drives.(v) + 1
let deflections_at net v = net.switch_deflections.(v)
let drives_at net v = net.switch_drives.(v)

let queue_drops_on net id =
  net.link_queue_drops.(2 * id) + net.link_queue_drops.((2 * id) + 1)

let reason_slug = function
  | Link_down -> "link_down"
  | Queue_full -> "queue_full"
  | No_route -> "no_route"
  | Ttl_exceeded -> "ttl"

let record_event net ~switch ~in_port ~out_port (packet : Packet.t) action =
  match net.recorder with
  | None -> ()
  | Some r ->
    let rg = ctx net in
    if net.solo || net.in_admin then
      (* Solo nets record straight through (the recorder canonicalises
         same-instant tie groups); admin records happen at a barrier,
         after every region's buffer below the barrier time has been
         flushed, with the admin action's own key. *)
      Trace.Recorder.record r
        ~key:(Engine.sched_now rg.r_engine, Engine.sched2_now rg.r_engine)
        ~vtime:(Engine.now rg.r_engine) ~uid:(Packet.uid packet) ~switch
        ~in_port ~out_port
        ~ttl:(net.ttl - Packet.hops packet)
        action
    else begin
      rg.r_tbuf <-
        {
          tv_vtime = Engine.now rg.r_engine;
          tv_sched = Engine.sched_now rg.r_engine;
          tv_sched2 = Engine.sched2_now rg.r_engine;
          tv_rid = rg.rid;
          tv_ctr = rg.r_tctr;
          tv_uid = Packet.uid packet;
          tv_switch = switch;
          tv_in = in_port;
          tv_out = out_port;
          tv_ttl = net.ttl - Packet.hops packet;
          tv_action = action;
        }
        :: rg.r_tbuf;
      rg.r_tctr <- rg.r_tctr + 1
    end

let record_decision = record_event

(* Drops are terminal: the packet goes back to the pool (a no-op for
   unpooled handles), so every loss path recycles its buffer. *)
let drop ?at ?(in_port = -1) net (packet : Packet.t) reason =
  let rg = ctx net in
  Log.debug (fun m ->
      m "t=%.6f drop %a (%s)" (Engine.now rg.r_engine) Packet.pp packet
        (match reason with
         | Link_down -> "link down"
         | Queue_full -> "queue full"
         | No_route -> "no route"
         | Ttl_exceeded -> "ttl"));
  (if net.recorder <> None then
     let switch = match at with Some v -> Graph.label net.graph v | None -> -1 in
     record_event net ~switch ~in_port ~out_port:(-1) packet
       (Trace.Event.Drop (reason_slug reason)));
  let c = rg.r_counters in
  (match reason with
   | Link_down -> Registry.incr c.c_drop_link_down
   | Queue_full -> Registry.incr c.c_drop_queue_full
   | No_route -> Registry.incr c.c_drop_no_route
   | Ttl_exceeded -> Registry.incr c.c_drop_ttl);
  Packet.Pool.release rg.r_pool packet

let delivered ?(in_port = -1) net (packet : Packet.t) =
  record_event net
    ~switch:(Graph.label net.graph (Packet.dst packet))
    ~in_port ~out_port:(-1) packet Trace.Event.Deliver;
  Registry.incr (ctx net).r_counters.c_delivered

let count_deflection net = Registry.incr (ctx net).r_counters.c_deflections
let count_reencode net = Registry.incr (ctx net).r_counters.c_reencodes
let count_hop net = Registry.incr (ctx net).r_counters.c_switch_hops

let set_node_handler net node h = net.handlers.(node) <- Some h

let fresh_uid net =
  let uid = net.next_uid in
  net.next_uid <- uid + 1;
  uid

let link_up net id = net.up.(id)

(* Pooled packets draw their uid from a per-source-node stream
   ([k * n_nodes + node]): the k-th allocation at a node gets the same uid
   at any region count, because each node's allocation sequence is a
   function of its own local timeline only.  A single global stream would
   depend on the global interleaving of allocations — exactly what a
   sharded run does not reproduce. *)
let alloc net ~src ~dst ~size_bytes ~route_id payload =
  let rg = ctx net in
  let p = Packet.Pool.acquire rg.r_pool in
  let k = net.uid_ctr.(src) in
  net.uid_ctr.(src) <- k + 1;
  let uid = (k * Array.length net.uid_ctr) + src in
  Packet.stamp p ~uid ~src ~dst ~size_bytes ~route_id
    ~born:(Engine.now rg.r_engine) payload;
  p

let free net p = Packet.Pool.release (ctx net).r_pool p
let pool net = net.pool

let pool_in_flight net =
  if net.solo then Packet.Pool.in_flight net.pool
  else
    (* grows have been drained into the main cells; buffers parked in any
       region free list (or the unused main one) are not in flight. *)
    Packet.Pool.grows net.pool
    - Packet.Pool.free_count net.pool
    - Array.fold_left
        (fun acc rg -> acc + Packet.Pool.free_count rg.r_pool)
        0 net.regions

let deliver net node packet ~in_port =
  match net.handlers.(node) with
  | Some h -> h net node packet ~in_port
  | None ->
    if Packet.dst packet = node then begin
      delivered ~in_port net packet;
      Packet.Pool.release (ctx net).r_pool packet
    end
    else drop ~at:node ~in_port net packet No_route

(* Put a packet on the wire of an idle channel: one merged event covers
   serialisation and propagation (the transmitter frees at [busy_until];
   the packet arrives [delay_s] later).  The event is an engine arrival
   on the channel's lane: the channel's [arrive] handler, the packet and
   the epoch at send time, so a failure during either phase is caught by
   the epoch check when it fires.  On a cut channel the arrival becomes a
   handoff in the peer region's outbox instead, carrying the (time,
   sched) key the serial engine would have used.  A channel transmits
   only from its owner region. *)
let transmit net ch packet =
  let rg = net.regions.(ch.owner_rid) in
  let e = rg.r_engine in
  let now = Engine.now e in
  let tx_time = float_of_int (Packet.size_bytes packet * 8) /. ch.rate_bps in
  net.busy_until.(ch.idx) <- now +. tx_time;
  let epoch = ch.epoch in
  if ch.x_cut then begin
    let dst_rid = net.region_of_node.(ch.dst) in
    rg.outboxes.(dst_rid) <-
      {
        (* Associated exactly as the engine path below computes it
           ([now + (tx + delay)], via [schedule_arrival]) — a cut crossing must
           produce the bit-identical arrival time the serial run gets, or
           exact-tie groups desynchronise downstream. *)
        h_time = now +. (tx_time +. ch.delay_s);
        h_sched = now;
        h_sched2 = Engine.sched_now e;
        h_src = rg.rid;
        h_ctr = rg.r_octr;
        h_epoch = epoch;
        h_ch = ch;
        h_packet = packet;
      }
      :: rg.outboxes.(dst_rid);
    rg.r_octr <- rg.r_octr + 1
  end
  else
    Engine.schedule_arrival e ch.lane (tx_time +. ch.delay_s) ch.arrive packet
      epoch

(* Where every arrival lands, local or from a cut link: the packet is
   delivered if the channel's epoch is still the one it was sent under,
   and dropped as link-down if a failure came in between. *)
let arrive net ch packet epoch =
  if ch.epoch = epoch then deliver net ch.dst packet ~in_port:ch.dst_port
  else drop net packet Link_down

(* Backlogged channels drain via wake events at the transmitter's free
   time.  [wake_scheduled] dedups the common case; stray extra wakes (after
   a failure reset the flag's event) are harmless because service is guarded
   by [busy_until] and FIFO order by the single queue.  Wakes always target
   the owning region's engine — [repair_link] may run at a barrier, where
   the calling context is not the channel's region. *)
let rec wake net ch () =
  ch.wake_scheduled <- false;
  if
    net.up.(ch.link_id)
    && (not (Queue.is_empty ch.queue))
    && Engine.now net.regions.(ch.owner_rid).r_engine >= net.busy_until.(ch.idx)
  then begin
    let packet = Queue.pop ch.queue in
    ch.queued_bytes <- ch.queued_bytes - Packet.size_bytes packet;
    transmit net ch packet
  end;
  schedule_wake net ch

and schedule_wake net ch =
  if (not ch.wake_scheduled) && (not (Queue.is_empty ch.queue)) && net.up.(ch.link_id)
  then begin
    ch.wake_scheduled <- true;
    let e = net.regions.(ch.owner_rid).r_engine in
    let now = Engine.now e in
    let t = net.busy_until.(ch.idx) in
    ignore (Engine.schedule_at e (if t > now then t else now) (wake net ch))
  end

let send net ~from_node ~port packet =
  let ch = net.out_channel.(from_node).(port) in
  if not net.up.(ch.link_id) then drop ~at:from_node net packet Link_down
  else if ch.queued_bytes + Packet.size_bytes packet > net.queue_capacity_bytes
  then begin
    net.link_queue_drops.(ch.idx) <- net.link_queue_drops.(ch.idx) + 1;
    drop ~at:from_node net packet Queue_full
  end
  else if
    Queue.is_empty ch.queue
    && Engine.now net.regions.(ch.owner_rid).r_engine >= net.busy_until.(ch.idx)
  then transmit net ch packet
  else begin
    Queue.push packet ch.queue;
    ch.queued_bytes <- ch.queued_bytes + Packet.size_bytes packet;
    Registry.set_max (ctx net).r_counters.g_queue_peak ch.queued_bytes;
    schedule_wake net ch
  end

let inject net ~at packet =
  Registry.incr (ctx net).r_counters.c_injected;
  record_event net ~switch:(Graph.label net.graph at) ~in_port:(-1)
    ~out_port:(-1) packet Trace.Event.Inject;
  deliver net at packet ~in_port:(-1)

(* The one constructor body.  One engine makes the solo structure: region
   0 is the net itself (its registry, counters and pool), so the serial
   hot path pays no indirection.  More engines make a sharded net: each
   region gets a private metrics shard and packet pool, and the
   [engine/*] probes aggregate over every region's engine. *)
let build ~who ~graph ~engines ~region_of_node ~lookahead ?registry
    ?(queue_capacity_bytes = 1_048_576) ?(ttl = Kar.Policy.ttl)
    ?(detection_delay_s = 0.0) () =
  let live = build_live ~who graph in
  let n_links = Graph.n_links graph in
  let n_nodes = Graph.n_nodes graph in
  let n_regions = Array.length engines in
  let solo = n_regions = 1 in
  let channels, out_channel =
    build_channels graph ~engines ~region_of_node
  in
  let registry =
    match registry with Some r -> r | None -> Registry.create ()
  in
  let sum f () = Array.fold_left (fun acc e -> acc + f e) 0 engines in
  Registry.probe registry "engine/events" (sum Engine.processed);
  Registry.probe registry "engine/pending" (sum Engine.pending);
  Registry.probe registry "engine/heap-peak" (fun () ->
      Array.fold_left (fun acc e -> max acc (Engine.heap_peak e)) 0 engines);
  let counters = make_counters registry in
  let pool = Packet.Pool.create ~registry () in
  let c_epochs, c_boundary, c_stalls, g_cut_ppm = make_shard_metrics registry in
  let region rid r_engine =
    let r_registry = if solo then registry else Registry.create () in
    {
      rid;
      r_engine;
      r_registry;
      r_counters = (if solo then counters else make_counters r_registry);
      r_pool =
        (if solo then pool else Packet.Pool.create ~registry:r_registry ());
      r_tbuf = [];
      r_tctr = 0;
      r_octr = 0;
      outboxes = Array.make n_regions [];
      r_mark = 0;
    }
  in
  let net =
    {
      graph;
      queue_capacity_bytes;
      ttl;
      detection_delay_s;
      up = Array.make n_links true;
      busy_until = Array.make (2 * n_links) 0.0;
      channels;
      out_channel;
      handlers = Array.make n_nodes None;
      live;
      registry;
      counters;
      pool;
      next_uid = 0;
      uid_ctr = Array.make n_nodes 0;
      recorder = None;
      switch_deflections = Array.make n_nodes 0;
      switch_drives = Array.make n_nodes 0;
      link_queue_drops = Array.make (2 * n_links) 0;
      regions = Array.mapi region engines;
      region_of_node;
      solo;
      lookahead;
      admin_lane = Engine.lane engines.(0);
      in_admin = false;
      admin = [];
      admin_seq = 0;
      c_epochs;
      c_boundary;
      c_stalls;
      g_cut_ppm;
    }
  in
  Array.iter
    (Array.iter (fun ch ->
         ch.arrive <- (fun packet epoch -> arrive net ch packet epoch)))
    channels;
  net

let create ~graph ~engine ?registry ?queue_capacity_bytes ?ttl
    ?detection_delay_s () =
  build ~who:"Net.create" ~graph ~engines:[| engine |]
    ~region_of_node:(Array.make (Graph.n_nodes graph) 0)
    ~lookahead:infinity ?registry ?queue_capacity_bytes ?ttl ?detection_delay_s
    ()

let create_partitioned ~graph ~partition ?registry ?queue_capacity_bytes ?ttl
    ?detection_delay_s () =
  let p : Topo.Partition.t = partition in
  if Array.length p.Topo.Partition.region_of <> Graph.n_nodes graph then
    invalid_arg "Net.create_partitioned: partition does not match the graph";
  (* Conservative simulation needs strictly positive lookahead: a cut
     through a zero-delay link would force zero-width epochs and the
     barrier would never advance.  Reject it up front.  One region has no
     cut and degenerates to the solo structure on a private engine (its
     lookahead is [infinity]). *)
  if not (p.Topo.Partition.lookahead > 0.0) then
    invalid_arg
      (Printf.sprintf
         "Net.create_partitioned: region cut crosses %d zero-delay link(s); \
          lookahead would be %g — repartition or give cut links a positive \
          delay"
         (List.length
            (List.filter
               (fun id -> (Graph.link graph id).Graph.delay_s <= 0.0)
               p.Topo.Partition.cut_links))
         p.Topo.Partition.lookahead);
  let net =
    build ~who:"Net.create_partitioned" ~graph
      ~engines:
        (Array.init p.Topo.Partition.n_regions (fun _ -> Engine.create ()))
      ~region_of_node:(Array.copy p.Topo.Partition.region_of)
      ~lookahead:p.Topo.Partition.lookahead ?registry ?queue_capacity_bytes
      ?ttl ?detection_delay_s ()
  in
  Registry.set net.g_cut_ppm (int_of_float (p.Topo.Partition.cut_ratio *. 1e6));
  net

(* --- global administration: failures, repairs, detection ------------- *)

(* Admin actions on CUT links touch state owned by two regions at once, so
   on a sharded net they run single-threaded at an epoch barrier, in
   (time, insertion) order.  Everything region-internal (non-cut links,
   solo nets) stays an ordinary engine event on the owning region. *)
let push_admin net ~at ~sched ~sched2 fn =
  let seq = net.admin_seq in
  net.admin_seq <- seq + 1;
  let rec ins = function
    | [] -> [ (at, sched, sched2, seq, fn) ]
    | ((t, s, s2, _, _) as hd) :: tl ->
      if
        t < at
        || (t = at && (s < sched || (s = sched && s2 <= sched2)))
      then hd :: ins tl
      else (at, sched, sched2, seq, fn) :: hd :: tl
  in
  net.admin <- ins net.admin

(* A solo net queues its admin events on the admin lane: [Driver.arm]
   arms them in time order at one clock, so they wait behind one heap
   entry. *)
let schedule_admin net ~at f =
  let e = (ctx net).r_engine in
  let now = Engine.now e in
  if not (at >= now) then
    invalid_arg
      (Printf.sprintf "Net.schedule_admin: time %g is %s (now %g)" at
         (if Float.is_nan at then "not a number" else "in the past")
         now);
  if net.solo then Engine.schedule_lane_at e net.admin_lane at f
  else push_admin net ~at ~sched:now ~sched2:(Engine.sched_now e) f

let set_cached_up net id value =
  let link = Graph.link net.graph id in
  List.iter
    (fun (ep : Graph.endpoint) ->
      if Graph.is_core net.graph ep.node then begin
        let bit = 1 lsl ep.port in
        net.live.(ep.node) <-
          (if value then net.live.(ep.node) lor bit
           else net.live.(ep.node) land lnot bit)
      end)
    [ link.Graph.ep0; link.Graph.ep1 ]

(* Liveness as the data plane *sees* it lags physical state by the
   detection delay (loss-of-signal / BFD time): until detection, switches
   keep selecting the dead port and those packets black-hole. *)
let schedule_detection net id =
  if net.detection_delay_s <= 0.0 then set_cached_up net id net.up.(id)
  else begin
    let fn () = set_cached_up net id net.up.(id) in
    let ch0 = net.channels.(id).(0) in
    if (not net.solo) && ch0.x_cut then
      (* detection flips live masks in two regions: barrier action *)
      (let e = (ctx net).r_engine in
       push_admin net
         ~at:(Engine.now e +. net.detection_delay_s)
         ~sched:(Engine.now e) ~sched2:(Engine.sched_now e) fn)
    else
      ignore
        (Engine.schedule_in net.regions.(ch0.owner_rid).r_engine
           net.detection_delay_s fn)
  end

(* [with_channel_region] pins counter/pool/trace attribution to the
   channel's owning region while a barrier action (cut-link failure)
   discards its queue — so the drops land in the same region shard a
   region-internal failure would have used. *)
let with_channel_region ch f =
  let saved = Domain.DLS.get cur_rid in
  Domain.DLS.set cur_rid ch.owner_rid;
  Fun.protect ~finally:(fun () -> Domain.DLS.set cur_rid saved) f

let fail_link net id =
  if net.up.(id) then begin
    Log.info (fun m ->
        let l = Graph.link net.graph id in
        m "t=%.6f link %d (SW%d-SW%d) failed" (Engine.now (ctx net).r_engine) id
          (Graph.label net.graph l.Graph.ep0.Graph.node)
          (Graph.label net.graph l.Graph.ep1.Graph.node));
    net.up.(id) <- false;
    schedule_detection net id;
    Array.iter
      (fun ch ->
        with_channel_region ch (fun () ->
            ch.epoch <- ch.epoch + 1;
            net.busy_until.(ch.idx) <- 0.0;
            Queue.iter (fun p -> drop net p Link_down) ch.queue;
            Queue.clear ch.queue;
            ch.queued_bytes <- 0))
      net.channels.(id)
  end

let repair_link net id =
  if not net.up.(id) then begin
    Log.info (fun m -> m "t=%.6f link %d repaired" (Engine.now (ctx net).r_engine) id);
    net.up.(id) <- true;
    schedule_detection net id;
    Array.iter (fun ch -> schedule_wake net ch) net.channels.(id)
  end

let live_mask net node = net.live.(node)

(* [schedule_at_node] books work onto the region that owns [node] — the
   only safe way for setup-time code (e.g. a TCP flow's kickoff) to enter
   a sharded timeline.  Solo nets preserve the historical call-now
   semantics exactly. *)
let schedule_at_node net node ~at f =
  let rg = net.regions.(net.region_of_node.(node)) in
  let now = Engine.now rg.r_engine in
  if Float.is_nan at then
    invalid_arg
      (Printf.sprintf "Net.schedule_at_node: time %g is not a number (now %g)"
         at now);
  if net.solo && at <= now then f ()
  else
    ignore
      (Engine.schedule_keyed rg.r_engine
         ~time:(if at > now then at else now)
         ~sched:now
         ~sched2:(Engine.sched_now rg.r_engine)
         f)

(* --- the conservative parallel run loop ------------------------------- *)

let tev_compare a b =
  let c = Float.compare a.tv_vtime b.tv_vtime in
  if c <> 0 then c
  else
    let c = Float.compare a.tv_sched b.tv_sched in
    if c <> 0 then c
    else
      let c = Float.compare a.tv_sched2 b.tv_sched2 in
      if c <> 0 then c
      else
        let c = compare a.tv_rid b.tv_rid in
        if c <> 0 then c else compare a.tv_ctr b.tv_ctr

let flush_traces net =
  match net.recorder with
  | None -> Array.iter (fun rg -> rg.r_tbuf <- []) net.regions
  | Some r ->
    let all =
      Array.fold_left
        (fun acc rg ->
          let l = rg.r_tbuf in
          rg.r_tbuf <- [];
          List.rev_append l acc)
        [] net.regions
    in
    List.iter
      (fun tv ->
        Trace.Recorder.record r
          ~key:(tv.tv_sched, tv.tv_sched2)
          ~vtime:tv.tv_vtime ~uid:tv.tv_uid ~switch:tv.tv_switch
          ~in_port:tv.tv_in ~out_port:tv.tv_out ~ttl:tv.tv_ttl tv.tv_action)
      (List.sort tev_compare all)

let handoff_compare a b =
  let c = Float.compare a.h_time b.h_time in
  if c <> 0 then c
  else
    let c = Float.compare a.h_sched b.h_sched in
    if c <> 0 then c
    else
      let c = Float.compare a.h_sched2 b.h_sched2 in
      if c <> 0 then c
      else
        let c = compare a.h_src b.h_src in
        if c <> 0 then c else compare a.h_ctr b.h_ctr

(* Drain every outbox into the destination engines in canonical order.
   All arrivals lie at or beyond the barrier (send time + cut delay >=
   epoch start + lookahead), so they are future events for every region. *)
let drain_outboxes net =
  let all =
    Array.fold_left
      (fun acc rg ->
        let acc = ref acc in
        Array.iteri
          (fun dst l ->
            if l <> [] then begin
              acc := List.rev_append l !acc;
              rg.outboxes.(dst) <- []
            end)
          rg.outboxes;
        !acc)
      [] net.regions
  in
  List.iter
    (fun h ->
      Registry.incr net.c_boundary;
      let dst_rid = net.region_of_node.(h.h_ch.dst) in
      Engine.schedule_arrival_keyed net.regions.(dst_rid).r_engine
        ~time:h.h_time ~sched:h.h_sched ~sched2:h.h_sched2 h.h_ch.arrive
        h.h_packet h.h_epoch)
    (List.sort handoff_compare all)

let run_sharded net t_stop =
  let jobs = max 1 (min (Array.length net.regions) (Util.Pool.current_jobs ())) in
  let pool = Util.Pool.create ~jobs in
  Fun.protect ~finally:(fun () -> Util.Pool.shutdown pool) @@ fun () ->
  (* One task per region, claimed by whichever domain is free (the caller
     included).  A region's epoch reads and writes only that region's
     state, so the result does not depend on which domain ran it. *)
  let section f =
    net.in_admin <- false;
    (match
       Util.Pool.map pool net.regions ~f:(fun ~idx rg ->
           Domain.DLS.set cur_rid idx;
           Fun.protect ~finally:(fun () -> Domain.DLS.set cur_rid 0) (fun () ->
               f rg))
     with
     | (_ : unit array) -> ()
     | exception Util.Pool.Task_failed { exn; _ } -> raise exn);
    net.in_admin <- true
  in
  let admin_next () =
    match net.admin with [] -> infinity | (t, _, _, _, _) :: _ -> t
  in
  let region_next () =
    Array.fold_left
      (fun acc rg ->
        match Engine.next_time rg.r_engine with
        | Some u -> Float.min acc u
        | None -> acc)
      infinity net.regions
  in
  let commit ~upto =
    Array.iter (fun rg -> Engine.advance_clock rg.r_engine upto) net.regions;
    Array.iter
      (fun rg ->
        let p = Engine.processed rg.r_engine in
        if p = rg.r_mark then Registry.incr net.c_stalls;
        rg.r_mark <- p)
      net.regions;
    flush_traces net;
    drain_outboxes net;
    Registry.incr net.c_epochs
  in
  let pump_admin upto =
    let rec go () =
      match net.admin with
      | (t, sched, sched2, _, fn) :: rest when t <= upto ->
        net.admin <- rest;
        (* Events the action schedules (and records it emits) must carry
           the keys the serial engine would have given them: the action's
           own scheduling keys. *)
        Array.iter
          (fun rg -> Engine.set_context_sched rg.r_engine ~sched ~sched2)
          net.regions;
        fn ();
        go ()
      | _ -> ()
    in
    go ()
  in
  net.in_admin <- true;
  let continue_ = ref true in
  while !continue_ do
    let t0 = Engine.now net.regions.(0).r_engine in
    (* Fast-forward: if nothing anywhere can happen before [tn], the next
       epoch may start there instead of crawling in lookahead steps. *)
    let tn = Float.min (region_next ()) (admin_next ()) in
    let t0 = if tn > t0 then Float.min tn t_stop else t0 in
    let ta = admin_next () in
    let e = Float.min (t0 +. net.lookahead) (Float.min ta t_stop) in
    if ta <= e && ta < t_stop then begin
      (* the next admin action bounds the epoch: run up to it, commit,
         then apply every admin entry due at that instant *)
      section (fun rg -> Engine.run_before rg.r_engine ta);
      commit ~upto:ta;
      pump_admin ta
    end
    else if e < t_stop then begin
      section (fun rg -> Engine.run_before rg.r_engine e);
      commit ~upto:e
    end
    else begin
      (* Final window: [t0, t_stop) fits within one lookahead, so first
         run strictly below t_stop, settle admin due exactly at t_stop
         (admin sorts before data at equal times, as in a serial run),
         then take the inclusive final step. *)
      section (fun rg -> Engine.run_before rg.r_engine t_stop);
      commit ~upto:t_stop;
      pump_admin t_stop;
      section (fun rg -> Engine.run_until rg.r_engine t_stop);
      commit ~upto:t_stop;
      continue_ := false
    end
  done;
  net.in_admin <- false;
  Array.iter
    (fun rg -> Registry.drain_into ~into:net.registry rg.r_registry)
    net.regions

let run_until net t_stop =
  if net.solo then Engine.run_until net.regions.(0).r_engine t_stop
  else run_sharded net t_stop

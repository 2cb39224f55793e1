module Net = Netsim.Net
module Engine = Netsim.Engine
module Packet = Netsim.Packet
module Karnet = Netsim.Karnet

module Z = Bignum.Z
module Graph = Topo.Graph

(* Congestion-control flavour: classic Reno AIMD, or CUBIC's time-based
   window function (the Linux default since 2.6.19 — what the paper's
   Mininet hosts would have run). *)
type cc_algorithm =
  | Reno
  | Cubic

type config = {
  cc : cc_algorithm;
  max_window_segments : int;
}

let default_config = { cc = Reno; max_window_segments = 256 }

(* Fixed segment sizes and timer bounds. *)
let mss = 1460 (* data bytes per segment *)
let mssf = float_of_int mss
let header_bytes = 40 (* L3/L4 header overhead per data packet *)
let ack_bytes = 40 (* ACK packet size on the wire *)
let initial_cwnd_segments = 10 (* RFC 6928-style initial window *)
let initial_ssthresh_segments = 64
let rto_initial_s = 1.0 (* before the first RTT sample *)
let rto_min_s = 0.2
let rto_max_s = 60.0 (* backoff ceiling *)

type stats = {
  segments_sent : int;
  retransmissions : int;
  fast_retransmits : int;
  timeouts : int;
  acks_received : int;
  dupacks : int;
  bytes_acked : int;
  bytes_delivered : int;
  reorder_events : int;
  max_reorder_gap : int;
  spurious_rexmits : int; (* retransmissions proven unnecessary by DSACK *)
  dupthresh : int; (* adapted duplicate threshold at sampling time *)
}

type Packet.payload += Data of { flow : int; seq : int }

type Packet.payload +=
  | Ack of {
      flow : int;
      ackno : int;
      sacks : (int * int) list;
      dsack : (int * int) option; (* duplicate arrival report (RFC 2883) *)
    }

type t = {
  flow_id : int;
  net : Net.t;
  config : config;
  src : Graph.node;
  dst : Graph.node;
  mutable fwd_route : Z.t;
  rev_route : Z.t;
  sampler : Sampler.t option;
  (* sender *)
  mutable running : bool;
  mutable snd_una : int;
  mutable snd_nxt : int;
  mutable cwnd : float; (* bytes *)
  mutable ssthresh : float; (* bytes *)
  mutable dupacks : int;
  mutable in_recovery : bool;
  mutable recovery_via_rto : bool;
      (* timeout recovery: every unacked segment is presumed lost and
         retransmitted cwnd-paced in slow start (classic post-RTO
         behaviour); false = NewReno fast recovery *)
  mutable recover : int;
  mutable srtt : float;
  mutable rttvar : float;
  mutable rto_base : float; (* estimator output, before backoff *)
  mutable backoff : float; (* multiplier, doubled per timeout *)
  mutable have_rtt_sample : bool;
  mutable timer : (Engine.t * Engine.event) option;
      (* the engine it was armed on: on a sharded net, [stop] may run from
         another region's context *)
  (* Single-segment RTT timing with Karn's algorithm: one segment is timed
     at a time; retransmitting it aborts the measurement. *)
  mutable timed_seq : int option;
  mutable timed_at : float;
  (* CUBIC state: the window before the last reduction and the epoch the
     cubic clock counts from *)
  mutable cubic_wmax : float;
  mutable cubic_epoch : float;
  (* receiver *)
  (* SACK scoreboard (sender side) *)
  sacked : (int, unit) Hashtbl.t;
  mutable highest_sacked : int;
  rexmitted_in_recovery : (int, unit) Hashtbl.t;
  (* Reordering adaptation (Linux-style): every retransmission is logged
     with the SACK gap that justified it; a DSACK for such a sequence
     proves the retransmission spurious, raising the duplicate threshold
     and undoing the associated cwnd reduction when possible. *)
  rexmit_log : (int, int) Hashtbl.t; (* seq -> gap (segments) at rexmit *)
  mutable dupthresh_dyn : int;
  mutable undo : (float * float) option; (* (prior cwnd, prior ssthresh) *)
  mutable undo_retrans : int;
      (* retransmissions of the current episode not yet proven spurious;
         reaching zero with [undo] pending restores the window (Linux's
         tcp_try_undo_dsack) *)
  mutable spurious_rexmits : int;
  (* receiver *)
  mutable rcv_nxt : int;
  ooo : (int, unit) Hashtbl.t;
  (* stats *)
  mutable segments_sent : int;
  mutable retransmissions : int;
  mutable fast_retransmits : int;
  mutable timeouts : int;
  mutable acks_received : int;
  mutable dupacks_total : int;
  mutable bytes_delivered : int;
  mutable reorder_events : int;
  mutable max_reorder_gap : int;
}

let id t = t.flow_id

let stats t =
  {
    segments_sent = t.segments_sent;
    retransmissions = t.retransmissions;
    fast_retransmits = t.fast_retransmits;
    timeouts = t.timeouts;
    acks_received = t.acks_received;
    dupacks = t.dupacks_total;
    bytes_acked = t.snd_una;
    bytes_delivered = t.bytes_delivered;
    reorder_events = t.reorder_events;
    max_reorder_gap = t.max_reorder_gap;
    spurious_rexmits = t.spurious_rexmits;
    dupthresh = t.dupthresh_dyn;
  }

let now t = Engine.now (Net.engine t.net)

let flight t = t.snd_nxt - t.snd_una

let effective_rto t = Stdlib.min rto_max_s (t.rto_base *. t.backoff)

let window_bytes t =
  let rwnd = t.config.max_window_segments * mss in
  min (int_of_float t.cwnd) rwnd

(* --- wire --- *)

let emit_segment t ~seq ~retransmission =
  let packet =
    Net.alloc t.net ~src:t.src ~dst:t.dst
      ~size_bytes:(mss + header_bytes)
      ~route_id:t.fwd_route
      (Data { flow = t.flow_id; seq })
  in
  t.segments_sent <- t.segments_sent + 1;
  if retransmission then begin
    t.retransmissions <- t.retransmissions + 1;
    t.undo_retrans <- t.undo_retrans + 1;
    let gap = Stdlib.max 0 ((t.highest_sacked - seq) / mss) in
    Hashtbl.replace t.rexmit_log seq gap;
    (* Karn: a retransmitted segment yields no RTT sample. *)
    if t.timed_seq = Some seq then t.timed_seq <- None
  end
  else if t.timed_seq = None then begin
    t.timed_seq <- Some seq;
    t.timed_at <- now t
  end;
  Net.inject t.net ~at:t.src packet

(* Up to three SACK blocks [lo, hi) assembled from the out-of-order set,
   highest block first (most recent data tends to be highest under
   reordering). *)
let sack_blocks t =
  match Hashtbl.length t.ooo with
  | 0 -> []
  | _ ->
    let seqs =
      Hashtbl.fold (fun seq () acc -> seq :: acc) t.ooo []
      |> List.sort (fun a b -> Stdlib.compare b a)
    in
    let rec blocks acc current = function
      | [] -> (match current with None -> acc | Some b -> b :: acc)
      | seq :: rest ->
        (match current with
         | None -> blocks acc (Some (seq, seq + mss)) rest
         | Some (lo, hi) ->
           if seq + mss = lo then blocks acc (Some (seq, hi)) rest
           else blocks ((lo, hi) :: acc) (Some (seq, seq + mss)) rest)
    in
    let all = List.rev (blocks [] None seqs) in
    let rec take n = function
      | [] -> []
      | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest
    in
    take 3 all

let emit_ack t ~ackno ~dsack =
  let packet =
    Net.alloc t.net ~src:t.dst ~dst:t.src ~size_bytes:ack_bytes
      ~route_id:t.rev_route
      (Ack { flow = t.flow_id; ackno; sacks = sack_blocks t; dsack })
  in
  Net.inject t.net ~at:t.dst packet

(* Multiplicative-decrease factor and window target on loss.  CUBIC
   reduces less (beta = 0.7) and remembers the pre-loss window as the
   plateau of its cubic curve. *)
let cubic_beta = 0.7
let cubic_c = 0.4

let on_window_reduction t =
  match t.config.cc with
  | Reno -> Stdlib.max (float_of_int (flight t) /. 2.0) (2.0 *. mssf)
  | Cubic ->
    t.cubic_wmax <- Stdlib.max t.cwnd (2.0 *. mssf);
    t.cubic_epoch <- now t;
    Stdlib.max (t.cwnd *. cubic_beta) (2.0 *. mssf)

(* Congestion-avoidance growth for one ACK covering [newly_acked] bytes. *)
let congestion_avoidance_growth t newly_acked =
  match t.config.cc with
  | Reno -> mssf *. float_of_int newly_acked /. t.cwnd
  | Cubic ->
    (* The cubic clock counts from the last window reduction; a flow that
       reaches congestion avoidance without any loss starts the clock at
       that moment (otherwise absolute time would inflate the target). *)
    if t.cubic_epoch <= 0.0 then begin
      t.cubic_epoch <- now t;
      t.cubic_wmax <- t.cwnd
    end;
    (* W(t) = C (t - K)^3 + Wmax, windows in MSS units, t in seconds *)
    let wmax = Stdlib.max t.cubic_wmax t.cwnd /. mssf in
    let k = Float.cbrt (wmax *. (1.0 -. cubic_beta) /. cubic_c) in
    let elapsed = now t -. t.cubic_epoch in
    let target = (cubic_c *. ((elapsed -. k) ** 3.0)) +. wmax in
    let cwnd_mss = t.cwnd /. mssf in
    if target > cwnd_mss then
      (* close a fraction of the gap per acked window's worth of data *)
      mssf *. (target -. cwnd_mss) /. cwnd_mss
        *. (float_of_int newly_acked /. mssf)
    else
      (* plateau: grow slowly (TCP-friendly region simplified to
         Reno-rate growth) *)
      mssf *. float_of_int newly_acked /. t.cwnd /. 8.0

(* --- sender timer --- *)

let cancel_timer t =
  match t.timer with
  | Some (engine, ev) ->
    Engine.cancel engine ev;
    t.timer <- None
  | None -> ()

let rec arm_timer t =
  cancel_timer t;
  if t.running && flight t > 0 then begin
    let engine = Net.engine t.net in
    t.timer <-
      Some
        ( engine,
          Engine.schedule_in engine (effective_rto t) (fun () -> on_timeout t) )
  end

and on_timeout t =
  t.timer <- None;
  if t.running && flight t > 0 then begin
    t.timeouts <- t.timeouts + 1;
    t.ssthresh <- on_window_reduction t;
    t.cwnd <- mssf;
    t.dupacks <- 0;
    (* enter timeout recovery: everything outstanding is presumed lost and
       will be retransmitted cwnd-paced as ACKs return *)
    t.in_recovery <- true;
    t.recovery_via_rto <- true;
    t.recover <- t.snd_nxt;
    Hashtbl.reset t.rexmitted_in_recovery;
    t.undo <- None;
    t.undo_retrans <- 0;
    t.backoff <- t.backoff *. 2.0;
    Hashtbl.replace t.rexmitted_in_recovery t.snd_una ();
    emit_segment t ~seq:t.snd_una ~retransmission:true;
    arm_timer t
  end

let send_available t =
  if t.running then begin
    let budget = window_bytes t in
    while flight t + mss <= budget do
      emit_segment t ~seq:t.snd_nxt ~retransmission:false;
      t.snd_nxt <- t.snd_nxt + mss
    done;
    if t.timer = None then arm_timer t
  end

(* --- RTT estimation (RFC 6298) --- *)

let rtt_sample t sample =
  if not t.have_rtt_sample then begin
    t.srtt <- sample;
    t.rttvar <- sample /. 2.0;
    t.have_rtt_sample <- true
  end
  else begin
    t.rttvar <- (0.75 *. t.rttvar) +. (0.25 *. Float.abs (t.srtt -. sample));
    t.srtt <- (0.875 *. t.srtt) +. (0.125 *. sample)
  end;
  t.rto_base <-
    Stdlib.min rto_max_s
      (Stdlib.max rto_min_s (t.srtt +. (4.0 *. t.rttvar)))

let take_rtt_sample t ~upto =
  match t.timed_seq with
  | Some seq when upto > seq ->
    t.timed_seq <- None;
    rtt_sample t (now t -. t.timed_at)
  | Some _ | None -> ()

(* --- SACK scoreboard --- *)

let dupthresh_cap = 300

let register_sacks t sacks =
  List.iter
    (fun (lo, hi) ->
      let seq = ref lo in
      while !seq < hi do
        if !seq >= t.snd_una && not (Hashtbl.mem t.sacked !seq) then begin
          Hashtbl.replace t.sacked !seq ();
          if !seq > t.highest_sacked then t.highest_sacked <- !seq
        end;
        seq := !seq + mss
      done)
    sacks

(* Linux-style tcp_check_sack_reordering: when a cumulative ACK fills a
   hole that we never retransmitted while data above it had already been
   SACKed, the original packet was merely late — direct evidence of
   reordering extent, learned without waiting for a DSACK round trip. *)
let learn_reordering_from_advance t upto =
  if t.highest_sacked > t.snd_una then begin
    let seq = ref t.snd_una in
    while !seq < upto do
      if (not (Hashtbl.mem t.sacked !seq))
         && (not (Hashtbl.mem t.rexmit_log !seq))
         && t.highest_sacked > !seq
      then begin
        let extent = ((t.highest_sacked - !seq) / mss) + 1 in
        if extent > t.dupthresh_dyn then
          t.dupthresh_dyn <- Stdlib.min dupthresh_cap extent
      end;
      seq := !seq + mss
    done
  end

let clear_sacked_below t upto =
  learn_reordering_from_advance t upto;
  let seq = ref t.snd_una in
  while !seq < upto do
    Hashtbl.remove t.sacked !seq;
    Hashtbl.remove t.rexmitted_in_recovery !seq;
    seq := !seq + mss
  done

(* RFC 6675-style loss inference: a hole is lost once dupthresh segments
   above it have been SACKed. *)
let snd_una_lost t =
  (not (Hashtbl.mem t.sacked t.snd_una))
  && t.highest_sacked >= t.snd_una + (t.dupthresh_dyn * mss)

(* Retransmit the lowest hole in [snd_una, recover) not yet retransmitted
   during this recovery episode. *)
let retransmit_next_hole t =
  let seq = ref t.snd_una in
  let found = ref false in
  while (not !found) && !seq < t.recover do
    if (not (Hashtbl.mem t.sacked !seq))
       && not (Hashtbl.mem t.rexmitted_in_recovery !seq)
    then begin
      found := true;
      Hashtbl.replace t.rexmitted_in_recovery !seq ();
      emit_segment t ~seq:!seq ~retransmission:true
    end
    else seq := !seq + mss
  done;
  !found

(* --- sender ACK processing (NewReno + SACK-assisted recovery) --- *)

let process_dsack t = function
  | None -> ()
  | Some (lo, _) ->
    (match Hashtbl.find_opt t.rexmit_log lo with
     | None -> ()
     | Some gap ->
       (* Our retransmission of [lo] was spurious: the original copy also
          arrived.  Learn the reordering extent and undo the associated
          window reduction if that episode had no other retransmission. *)
       Hashtbl.remove t.rexmit_log lo;
       t.spurious_rexmits <- t.spurious_rexmits + 1;
       (* A confirmed spurious retransmission means tolerance must exceed
          the whole window in flight at that moment (Linux jumps its
          reordering metric to fackets_out on DSACK, not by one). *)
       let window_extent = (flight t / mss) + 1 in
       t.dupthresh_dyn <-
         Stdlib.min dupthresh_cap
           (Stdlib.max t.dupthresh_dyn (Stdlib.max (gap + 1) window_extent));
       t.undo_retrans <- Stdlib.max 0 (t.undo_retrans - 1);
       if t.undo_retrans = 0 then begin
         (* every retransmission of the episode was spurious: restore the
            pre-episode window (Linux's tcp_try_undo_dsack) *)
         match t.undo with
         | Some (prior_cwnd, prior_ssthresh) ->
           t.cwnd <- Stdlib.max t.cwnd prior_cwnd;
           t.ssthresh <- Stdlib.max t.ssthresh prior_ssthresh;
           t.undo <- None
         | None -> ()
       end)

let handle_ack t net ~ackno ~sacks ~dsack =
  ignore net;
  if t.running then begin
    t.acks_received <- t.acks_received + 1;
    register_sacks t sacks;
    process_dsack t dsack;
    if ackno > t.snd_una && ackno <= t.snd_nxt then begin
      take_rtt_sample t ~upto:ackno;
      t.backoff <- 1.0;
      let newly_acked = ackno - t.snd_una in
      clear_sacked_below t ackno;
      if t.in_recovery then begin
        if ackno >= t.recover then begin
          (* full ACK: leave recovery *)
          t.snd_una <- ackno;
          t.in_recovery <- false;
          t.recovery_via_rto <- false;
          t.dupacks <- 0;
          Hashtbl.reset t.rexmitted_in_recovery;
          t.cwnd <- t.ssthresh
        end
        else if t.recovery_via_rto then begin
          (* timeout recovery: slow-start growth, retransmit holes up to
             the window (the whole outstanding window is presumed lost) *)
          t.snd_una <- ackno;
          t.cwnd <- Stdlib.min t.ssthresh (t.cwnd +. float_of_int newly_acked);
          let budget =
            Stdlib.max 1 (int_of_float (t.cwnd /. mssf) / 2)
          in
          let repaired = ref 0 in
          while !repaired < budget && retransmit_next_hole t do
            incr repaired
          done
        end
        else begin
          (* NewReno partial ACK: repair the next hole the scoreboard
             shows, deflate by the amount acked *)
          t.snd_una <- ackno;
          ignore (retransmit_next_hole t);
          t.cwnd <-
            Stdlib.max (mssf)
              (t.cwnd -. float_of_int newly_acked +. mssf)
        end
      end
      else begin
        t.snd_una <- ackno;
        t.dupacks <- 0;
        (* Appropriate byte counting (RFC 3465 / Linux): reordered ACK
           streams arrive as jumps, so growth must credit the bytes acked,
           not the number of ACK packets. *)
        if t.cwnd < t.ssthresh then
          (* slow start: one MSS per acked MSS, capped at the threshold *)
          t.cwnd <-
            Stdlib.min t.ssthresh (t.cwnd +. float_of_int newly_acked)
        else
          (* congestion avoidance: Reno byte counting or CUBIC's curve *)
          t.cwnd <- t.cwnd +. congestion_avoidance_growth t newly_acked
      end;
      arm_timer t;
      send_available t
    end
    else if ackno = t.snd_una && flight t > 0 then begin
      (* duplicate ACK *)
      t.dupacks_total <- t.dupacks_total + 1;
      if t.in_recovery then begin
        t.cwnd <- t.cwnd +. mssf;
        ignore (retransmit_next_hole t);
        send_available t
      end
      else begin
        t.dupacks <- t.dupacks + 1;
        (* With SACK, enter recovery only when the scoreboard actually
           shows snd_una lost (three segments SACKed above it) — pure
           reordering below that threshold triggers nothing. *)
        if snd_una_lost t then begin
          t.fast_retransmits <- t.fast_retransmits + 1;
          let prior_cwnd = t.cwnd and prior_ssthresh = t.ssthresh in
          t.ssthresh <- on_window_reduction t;
          t.recover <- t.snd_nxt;
          t.in_recovery <- true;
          t.recovery_via_rto <- false;
          Hashtbl.reset t.rexmitted_in_recovery;
          Hashtbl.replace t.rexmitted_in_recovery t.snd_una ();
          t.undo <- Some (prior_cwnd, prior_ssthresh);
          t.undo_retrans <- 0;
          emit_segment t ~seq:t.snd_una ~retransmission:true;
          t.cwnd <- t.ssthresh +. (3.0 *. mssf);
          send_available t
        end
      end
    end
    (* stale ACK below snd_una: ignore *)
  end

(* --- receiver --- *)

let handle_data t net ~seq =
  let duplicate = seq < t.rcv_nxt || Hashtbl.mem t.ooo seq in
  if duplicate then emit_ack t ~ackno:t.rcv_nxt ~dsack:(Some (seq, seq + mss))
  else if seq > t.rcv_nxt then begin
    t.reorder_events <- t.reorder_events + 1;
    let gap = (seq - t.rcv_nxt) / mss in
    if gap > t.max_reorder_gap then t.max_reorder_gap <- gap;
    Hashtbl.replace t.ooo seq ()
  end
  else begin
    (* seq = rcv_nxt: in-order delivery *)
    let before = t.rcv_nxt in
    t.rcv_nxt <- t.rcv_nxt + mss;
    while Hashtbl.mem t.ooo t.rcv_nxt do
      Hashtbl.remove t.ooo t.rcv_nxt;
      t.rcv_nxt <- t.rcv_nxt + mss
    done;
    let delivered = t.rcv_nxt - before in
    t.bytes_delivered <- t.bytes_delivered + delivered;
    (match t.sampler with
     | Some s -> Sampler.add s ~time:(Engine.now (Net.engine net)) ~bytes:delivered
     | None -> ())
  end;
  if not duplicate then emit_ack t ~ackno:t.rcv_nxt ~dsack:None

let start ~net ~id ~src ~dst ~fwd_route ~rev_route ?(config = default_config)
    ?sampler () =
  let t =
    {
      flow_id = id;
      net;
      config;
      src;
      dst;
      fwd_route;
      rev_route;
      sampler;
      running = true;
      snd_una = 0;
      snd_nxt = 0;
      cwnd = float_of_int (initial_cwnd_segments * mss);
      ssthresh = float_of_int (initial_ssthresh_segments * mss);
      dupacks = 0;
      in_recovery = false;
      recovery_via_rto = false;
      recover = 0;
      srtt = 0.0;
      rttvar = 0.0;
      rto_base = rto_initial_s;
      backoff = 1.0;
      have_rtt_sample = false;
      timer = None;
      timed_seq = None;
      timed_at = 0.0;
      cubic_wmax = 0.0;
      cubic_epoch = 0.0;
      sacked = Hashtbl.create 1024;
      highest_sacked = 0;
      rexmitted_in_recovery = Hashtbl.create 256;
      rexmit_log = Hashtbl.create 256;
      dupthresh_dyn = 3;
      undo = None;
      undo_retrans = 0;
      spurious_rexmits = 0;
      rcv_nxt = 0;
      ooo = Hashtbl.create 1024;
      segments_sent = 0;
      retransmissions = 0;
      fast_retransmits = 0;
      timeouts = 0;
      acks_received = 0;
      dupacks_total = 0;
      bytes_delivered = 0;
      reorder_events = 0;
      max_reorder_gap = 0;
    }
  in
  let kickoff () = send_available t in
  (* The kickoff must run on the region owning [src]: on a sharded net the
     flow's timers and segments belong to that timeline.  On a solo net
     it runs immediately. *)
  Net.schedule_at_node net src ~at:(Engine.now (Net.engine net)) kickoff;
  t

let set_fwd_route t route = t.fwd_route <- route

type debug = {
  cwnd_bytes : float;
  ssthresh_bytes : float;
  srtt_s : float;
  rto_s : float;
  in_recovery : bool;
  flight_bytes : int;
}

let debug t =
  {
    cwnd_bytes = t.cwnd;
    ssthresh_bytes = t.ssthresh;
    srtt_s = t.srtt;
    rto_s = effective_rto t;
    in_recovery = t.in_recovery;
    flight_bytes = flight t;
  }

let stop t =
  t.running <- false;
  cancel_timer t

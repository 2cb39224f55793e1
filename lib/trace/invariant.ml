type violation = { invariant : string; uid : int; detail : string }

let pp_violation ppf v =
  if v.uid >= 0 then
    Format.fprintf ppf "@[[%s] uid=%d: %s@]" v.invariant v.uid v.detail
  else Format.fprintf ppf "@[[%s] %s@]" v.invariant v.detail

let check ?(expect_delivery = false) ?(drained = false) ?(truncated = false)
    events =
  let events =
    List.stable_sort (fun a b -> compare a.Event.seq b.Event.seq) events
  in
  let violations = ref [] in
  let add invariant uid detail =
    violations := { invariant; uid; detail } :: !violations
  in
  (* Split into per-packet streams, preserving order. *)
  let streams : (int, Event.t list ref) Hashtbl.t = Hashtbl.create 64 in
  let uids_rev = ref [] in
  List.iter
    (fun (e : Event.t) ->
      match Hashtbl.find_opt streams e.uid with
      | Some l -> l := e :: !l
      | None ->
          Hashtbl.add streams e.uid (ref [ e ]);
          uids_rev := e.uid :: !uids_rev)
    events;
  let uids = List.rev !uids_rev in
  let stream uid = List.rev !(Hashtbl.find streams uid) in
  (* (1) driven-loop, (2) conservation, (3) ttl, (5) delivery: one pass per
     packet stream. *)
  List.iter
    (fun uid ->
      let evs = stream uid in
      (* A ring-overwritten trace is a suffix: packets whose stream no
         longer starts at its [Inject] lost their prefix, so birth-counting
         checks (exactly-one inject, drain, delivery) are unsound for
         them.  The order-local checks (loop, ttl, fifo, at-most-one
         terminal) remain valid on any suffix. *)
      let prefix_lost =
        truncated
        && (match evs with
            | e :: _ -> e.Event.action <> Event.Inject
            | [] -> true)
      in
      let injects = ref 0 in
      let terminals = ref 0 in
      let after_terminal = ref false in
      let delivered = ref false in
      let driving = ref false in
      let driven_path = ref [] in
      let last_ttl = ref None in
      List.iter
        (fun (e : Event.t) ->
          if !terminals > 0 then after_terminal := true;
          (match e.action with
          | Event.Inject -> incr injects
          | Event.Deliver ->
              incr terminals;
              delivered := true
          | Event.Drop _ -> incr terminals
          | Event.Forward | Event.Deflect _ | Event.Drive | Event.Reencode ->
              ());
          (* driven-loop *)
          (match e.action with
          | Event.Drive ->
              if !driving && List.mem e.switch !driven_path then
                add "driven-loop" uid
                  (Printf.sprintf "switch %d revisited while driven (seq %d)"
                     e.switch e.seq);
              if not !driving then (
                driving := true;
                driven_path := [ e.switch ])
              else driven_path := e.switch :: !driven_path
          | Event.Forward ->
              if !driving then
                if List.mem e.switch !driven_path then
                  add "driven-loop" uid
                    (Printf.sprintf "switch %d revisited while driven (seq %d)"
                       e.switch e.seq)
                else driven_path := e.switch :: !driven_path
          | Event.Deflect _ ->
              (* a fresh deflection legitimately restarts the walk *)
              driving := false;
              driven_path := []
          | _ -> ());
          (* ttl over injection + decisions *)
          if e.action = Event.Inject || Event.is_decision e then (
            (* the wire header carries the TTL in one byte *)
            if e.ttl < 0 || e.ttl > 255 then
              add "ttl" uid
                (Printf.sprintf
                   "ttl %d not representable in Wire.Header (seq %d)" e.ttl
                   e.seq);
            (match !last_ttl with
            | Some prev when e.ttl >= prev ->
                add "ttl" uid
                  (Printf.sprintf "ttl not strictly decreasing: %d -> %d (seq %d)"
                     prev e.ttl e.seq)
            | _ -> ());
            last_ttl := Some e.ttl))
        evs;
      if !injects <> 1 && not prefix_lost then
        add "conservation" uid
          (Printf.sprintf "%d inject events (want exactly 1)" !injects);
      if !terminals > 1 then
        add "conservation" uid
          (Printf.sprintf "%d terminal events (want at most 1)" !terminals);
      if !after_terminal then
        add "conservation" uid "events recorded after terminal event";
      if drained && !terminals = 0 && not prefix_lost then
        add "conservation" uid "still in flight at drain";
      if expect_delivery && (not !delivered) && not prefix_lost then
        add "delivery" uid "packet not delivered")
    uids;
  (* (4) fifo: pair each send (out_port >= 0) with the packet's next event
     that has an arrival port; a queue (switch, out_port) must see arrival
     order match send order. Sequence numbers are assigned in processing
     order, so comparing them compares simulated time (with engine
     tie-breaking included). *)
  let channels : (int * int, (int * int * int) list ref) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun uid ->
      let rec pair = function
        | (a : Event.t) :: ((b : Event.t) :: _ as rest) ->
            (if a.out_port >= 0 && b.in_port >= 0 then
               let key = (a.switch, a.out_port) in
               let entry = (a.seq, b.seq, uid) in
               match Hashtbl.find_opt channels key with
               | Some l -> l := entry :: !l
               | None -> Hashtbl.add channels key (ref [ entry ]));
            pair rest
        | _ -> ()
      in
      pair (stream uid))
    uids;
  Hashtbl.iter
    (fun (switch, port) entries ->
      let sends =
        List.sort (fun (s1, _, _) (s2, _, _) -> compare s1 s2) !entries
      in
      let _ =
        List.fold_left
          (fun prev (_, arr, uid) ->
            (match prev with
            | Some (prev_arr, prev_uid) when arr < prev_arr ->
                add "fifo" uid
                  (Printf.sprintf
                     "overtook uid %d on queue (switch %d, port %d)" prev_uid
                     switch port)
            | _ -> ());
            Some (arr, uid))
          None sends
      in
      ())
    channels;
  List.rev !violations

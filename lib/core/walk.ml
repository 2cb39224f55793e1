module Graph = Topo.Graph

type outcome =
  | Delivered of int
  | Stranded of Graph.node * int
  | Dropped of int
  | Ttl_exceeded

type result = {
  trials : int;
  delivered : int;
  stranded : int;
  dropped : int;
  ttl_exceeded : int;
  mean_hops : float;
  max_hops : int;
  p_delivery : float;
}

(* Per-core-switch PRNG streams split from one master seed, in the exact
   order {!Netsim.Karnet.install_switches} splits them — the contract that
   makes a walk and a zero-delay netsim run take identical random draws. *)
let switch_rngs g ~seed =
  let master = Util.Prng.of_int seed in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun v -> Hashtbl.add tbl v (Util.Prng.split master))
    (Graph.core_nodes g);
  fun v ->
    match Hashtbl.find_opt tbl v with
    | Some rng -> rng
    | None -> invalid_arg "Walk.switch_rngs: not a core node"

let walk g ~plan ~policy ~failed ~src ~dst ~ttl ?recorder ?(uid = 0) ?rng_for
    rng =
  let rng_for = match rng_for with Some f -> f | None -> fun _ -> rng in
  let record ~vtime ~switch ~in_port ~out_port ~ttl:remaining action =
    match recorder with
    | None -> ()
    | Some r ->
      ignore
        (Trace.Recorder.record r ~vtime ~uid ~switch ~in_port ~out_port
           ~ttl:remaining action)
  in
  record ~vtime:0.0 ~switch:(Graph.label g src) ~in_port:(-1) ~out_port:(-1)
    ~ttl Trace.Event.Inject;
  (* Enter the core through the source edge's first healthy port. *)
  let first_hop () =
    let rec find p =
      if p >= Graph.degree g src then None
      else begin
        let link = Graph.link_at g src p in
        if List.mem link.Graph.id failed then find (p + 1)
        else Some (Graph.other_end link src)
      end
    in
    find 0
  in
  match first_hop () with
  | None ->
    record ~vtime:0.0 ~switch:(-1) ~in_port:(-1) ~out_port:(-1) ~ttl
      (Trace.Event.Drop "link_down");
    Dropped 0
  | Some entry ->
    let rec step (node : Graph.node) in_port hops deflected =
      let label = Graph.label g node in
      if node = dst then begin
        record ~vtime:(float_of_int hops) ~switch:label ~in_port ~out_port:(-1)
          ~ttl:(ttl - hops) Trace.Event.Deliver;
        Delivered hops
      end
      else if not (Graph.is_core g node) then begin
        record ~vtime:(float_of_int hops) ~switch:label ~in_port ~out_port:(-1)
          ~ttl:(ttl - hops) (Trace.Event.Drop "stranded");
        Stranded (node, hops)
      end
      else if hops >= ttl then begin
        record ~vtime:(float_of_int hops) ~switch:label ~in_port ~out_port:(-1)
          ~ttl:(ttl - hops - 1) (Trace.Event.Drop "ttl");
        Ttl_exceeded
      end
      else begin
        let choice =
          Policy.choose policy
            ~computed:
              (Policy.computed_port ~switch_id:label
                 ~route_id:plan.Route.route_id)
            ~in_port ~deflected ~degree:(Graph.degree g node)
            ~live:
              (Policy.mask_of_failures g ~node ~failed:(fun id ->
                   List.mem id failed))
        in
        if choice = 0 then begin
          record ~vtime:(float_of_int hops) ~switch:label ~in_port
            ~out_port:(-1) ~ttl:(ttl - hops - 1) (Trace.Event.Drop "no_route");
          Dropped hops
        end
        else begin
          let port =
            if choice < 0 then lnot choice else Policy.pick (rng_for node) choice
          in
          (match recorder with
           | None -> ()
           | Some r ->
             let action =
               Trace.Event.decision_action ~via_computed:(choice < 0) ~deflected
                 ~protected_:(Trace.Recorder.is_protected r label)
                 ~policy:(Policy.to_string policy)
             in
             record ~vtime:(float_of_int hops) ~switch:label ~in_port
               ~out_port:port ~ttl:(ttl - hops - 1) action);
          let far = Graph.other_end (Graph.link_at g node port) node in
          step far.Graph.node far.Graph.port (hops + 1) (deflected || choice > 0)
        end
      end
    in
    step entry.Graph.node entry.Graph.port 0 false

let run g ~plan ~policy ~failed ~src ~dst ~trials ~seed =
  if trials <= 0 then invalid_arg "Walk.run: trials must be positive";
  let rng = Util.Prng.of_int seed in
  let delivered = ref 0
  and stranded = ref 0
  and dropped = ref 0
  and ttl_exceeded = ref 0
  and hop_total = ref 0
  and hop_max = ref 0 in
  for _ = 1 to trials do
    match walk g ~plan ~policy ~failed ~src ~dst ~ttl:Policy.ttl rng with
    | Delivered h ->
      incr delivered;
      hop_total := !hop_total + h;
      if h > !hop_max then hop_max := h
    | Stranded _ -> incr stranded
    | Dropped _ -> incr dropped
    | Ttl_exceeded -> incr ttl_exceeded
  done;
  {
    trials;
    delivered = !delivered;
    stranded = !stranded;
    dropped = !dropped;
    ttl_exceeded = !ttl_exceeded;
    mean_hops =
      (if !delivered = 0 then nan
       else float_of_int !hop_total /. float_of_int !delivered);
    max_hops = !hop_max;
    p_delivery = float_of_int !delivered /. float_of_int trials;
  }

let hop_histogram g ~plan ~policy ~failed ~src ~dst ~trials ~seed =
  let rng = Util.Prng.of_int seed in
  let hist = Array.make (Policy.ttl + 1) 0 in
  for _ = 1 to trials do
    match walk g ~plan ~policy ~failed ~src ~dst ~ttl:Policy.ttl rng with
    | Delivered h -> hist.(h) <- hist.(h) + 1
    | Stranded _ | Dropped _ | Ttl_exceeded -> ()
  done;
  hist

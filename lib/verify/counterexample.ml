module Graph = Topo.Graph

(* Event synthesis mirrors the Karnet recorder shapes exactly (see
   lib/netsim/net.ml / karnet.ml): vtime is the hop index, the ttl field
   is [ttl - hops] with hops bumped at every core-switch arrival, Reencode
   happens at the stranding edge with in=-1/out=0 and no hop bump, and a
   TTL death records ttl = -1 (the engine drops after bumping past the
   budget).  The synthesized trace is then machine-checked by the same
   {!Trace.Invariant} checker that audits live engine runs. *)

let uid = 0

let events (inst : Verifier.instance) (r : Verifier.refutation)
    ~init_stranded =
  let g = inst.graph in
  let ttl0 = Kar.Policy.ttl in
  let seq = ref 0 in
  let acc = ref [] in
  let emit ~switch ~in_port ~out_port ~hops action =
    let e =
      {
        Trace.Event.seq = !seq;
        vtime = float_of_int hops;
        uid;
        switch;
        in_port;
        out_port;
        ttl = ttl0 - hops;
        action;
      }
    in
    incr seq;
    acc := e :: !acc
  in
  emit
    ~switch:(Graph.label g inst.src)
    ~in_port:(-1) ~out_port:(-1) ~hops:0 Trace.Event.Inject;
  if init_stranded >= 0 then
    emit ~switch:init_stranded ~in_port:(-1) ~out_port:0 ~hops:0
      Trace.Event.Reencode;
  let policy = Kar.Policy.to_string inst.policy in
  let hops = ref 0 in
  let ttl_dead = ref false in
  let decide (s : Verifier.step) =
    (* one core-switch arrival: bump, die of TTL past the budget, else
       record the decision (and any stranding re-encode it led to) *)
    if not !ttl_dead then begin
      incr hops;
      if !hops > ttl0 then begin
        emit ~switch:s.Verifier.switch ~in_port:s.Verifier.in_port
          ~out_port:(-1) ~hops:!hops (Trace.Event.Drop "ttl");
        ttl_dead := true
      end
      else begin
        let action =
          Trace.Event.decision_action ~via_computed:s.Verifier.via_computed
            ~deflected:s.Verifier.deflected_before
            ~protected_:(Kar.Route.is_protected inst.plan s.Verifier.switch)
            ~policy
        in
        emit ~switch:s.Verifier.switch ~in_port:s.Verifier.in_port
          ~out_port:s.Verifier.out_port ~hops:!hops action;
        if s.Verifier.stranded >= 0 then
          emit ~switch:s.Verifier.stranded ~in_port:(-1) ~out_port:0
            ~hops:!hops Trace.Event.Reencode
      end
    end
  in
  (match r with
   | Verifier.Drops { steps; at; at_in_port } ->
     List.iter decide steps;
     if not !ttl_dead then begin
       (* final arrival at the dead end: a core switch bumps the hop count
          (and can itself die of TTL), an edge does not *)
       let is_core =
         match Graph.find_label g at with
         | Some v -> Graph.is_core g v
         | None -> false
       in
       if is_core then incr hops;
       if is_core && !hops > ttl0 then
         emit ~switch:at ~in_port:at_in_port ~out_port:(-1) ~hops:!hops
           (Trace.Event.Drop "ttl")
       else
         emit ~switch:at ~in_port:at_in_port ~out_port:(-1) ~hops:!hops
           (Trace.Event.Drop "no_route")
     end
   | Verifier.Loops { prefix; cycle } ->
     List.iter decide prefix;
     (* unroll the cycle until the TTL kills the run *)
     while not !ttl_dead do
       List.iter decide cycle
     done);
  List.rev !acc

let check inst r ~init_stranded =
  Trace.Invariant.check ~expect_delivery:true (events inst r ~init_stranded)

let well_formed violations =
  List.for_all
    (fun (v : Trace.Invariant.violation) ->
      not (List.mem v.Trace.Invariant.invariant [ "conservation"; "ttl"; "fifo" ]))
    violations

let refutes violations =
  List.exists
    (fun (v : Trace.Invariant.violation) ->
      v.Trace.Invariant.invariant = "delivery")
    violations

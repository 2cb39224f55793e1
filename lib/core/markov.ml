module Graph = Topo.Graph

type analysis = {
  states : int;
  p_delivered : float;
  p_stranded : float;
  p_dropped : float;
  p_loop : float;
  expected_hops : float;
  expected_hops_delivered : float;
}

let solve a b =
  let n = Array.length b in
  let m = Array.map Array.copy a in
  let x = Array.copy b in
  for col = 0 to n - 1 do
    (* partial pivoting *)
    let pivot = ref col in
    for row = col + 1 to n - 1 do
      if Float.abs m.(row).(col) > Float.abs m.(!pivot).(col) then pivot := row
    done;
    if Float.abs m.(!pivot).(col) < 1e-12 then failwith "Markov.solve: singular system";
    if !pivot <> col then begin
      let tmp = m.(col) in
      m.(col) <- m.(!pivot);
      m.(!pivot) <- tmp;
      let tb = x.(col) in
      x.(col) <- x.(!pivot);
      x.(!pivot) <- tb
    end;
    for row = col + 1 to n - 1 do
      let factor = m.(row).(col) /. m.(col).(col) in
      if factor <> 0.0 then begin
        for k = col to n - 1 do
          m.(row).(k) <- m.(row).(k) -. (factor *. m.(col).(k))
        done;
        x.(row) <- x.(row) -. (factor *. x.(col))
      end
    done
  done;
  for row = n - 1 downto 0 do
    let acc = ref x.(row) in
    for k = row + 1 to n - 1 do
      acc := !acc -. (m.(row).(k) *. x.(k))
    done;
    x.(row) <- !acc /. m.(row).(row)
  done;
  x

(* Absorption targets of a single transition. *)
type target =
  | To of int (* transient state index *)
  | Absorb_delivered
  | Absorb_stranded
  | Absorb_dropped

let analyze g ~plan ~policy ~failed ~src ~dst =
  if Graph.is_core g src then invalid_arg "Markov.analyze: src must be an edge node";
  let link_down id = List.mem id failed in
  (* State indexing: (node, in_port, deflected) for core nodes. *)
  let index = Hashtbl.create 256 in
  let states = ref [] in
  let n_states = ref 0 in
  let state_id node port defl =
    let key = (node, port, defl) in
    match Hashtbl.find_opt index key with
    | Some i -> i
    | None ->
      let i = !n_states in
      Hashtbl.replace index key i;
      states := key :: !states;
      incr n_states;
      i
  in
  (* Where does a packet leaving [v] by [port] end up? *)
  let classify_exit v port defl =
    let link = Graph.link_at g v port in
    let far = Graph.other_end link v in
    let u = far.Graph.node in
    if u = dst then Absorb_delivered
    else if not (Graph.is_core g u) then Absorb_stranded
    else To (state_id u far.Graph.port defl)
  in
  (* The forwarding distribution at a state: list of (probability, target),
     read off the switch's one decision — the taken port, each candidate of
     a uniform draw in ascending port order, or a drop.  The test suite
     cross-checks it against the Monte-Carlo walker. *)
  let distribution (v, in_port, defl) =
    let deg = Graph.degree g v in
    let choice =
      Policy.choose policy
        ~computed:
          (Policy.computed_port ~switch_id:(Graph.label g v)
             ~route_id:plan.Route.route_id)
        ~in_port ~deflected:defl ~degree:deg
        ~live:(Policy.mask_of_failures g ~node:v ~failed:link_down)
    in
    if choice < 0 then [ (1.0, classify_exit v (lnot choice) defl) ]
    else if choice = 0 then [ (1.0, Absorb_dropped) ]
    else begin
      let ports =
        List.filter (fun p -> choice land (1 lsl p) <> 0) (List.init deg Fun.id)
      in
      let share = 1.0 /. float_of_int (List.length ports) in
      List.map (fun p -> (share, classify_exit v p true)) ports
    end
  in
  (* Entry: the packet leaves [src] by its first healthy port. *)
  let entry =
    let rec find p =
      if p >= Graph.degree g src then None
      else if link_down (Graph.link_at g src p).Graph.id then find (p + 1)
      else Some (classify_exit src p false)
    in
    find 0
  in
  match entry with
  | None ->
    {
      states = 0;
      p_delivered = 0.0;
      p_stranded = 0.0;
      p_dropped = 1.0;
      p_loop = 0.0;
      expected_hops = 0.0;
      expected_hops_delivered = nan;
    }
  | Some start ->
    (* Explore reachable states breadth-first, memoising distributions. *)
    let dists : (int, (float * target) list) Hashtbl.t = Hashtbl.create 256 in
    let rec explore i =
      if not (Hashtbl.mem dists i) then begin
        let key = List.nth (List.rev !states) i in
        let dist = distribution key in
        Hashtbl.replace dists i dist;
        List.iter (function _, To j -> explore j | _ -> ()) dist
      end
    in
    (match start with To i -> explore i | _ -> ());
    let n = !n_states in
    if n = 0 then begin
      (* absorbed on the very first hop *)
      let one target =
        match start with
        | t when t = target -> 1.0
        | _ -> 0.0
      in
      {
        states = 0;
        p_delivered = one Absorb_delivered;
        p_stranded = one Absorb_stranded;
        p_dropped = one Absorb_dropped;
        p_loop = 0.0;
        expected_hops = 0.0;
        expected_hops_delivered =
          (if start = Absorb_delivered then 0.0 else nan);
      }
    end
    else begin
      (* Build (I - Q) and the absorption vectors.  Each transition costs
         one hop (the switch traversal that forwarded the packet). *)
      let identity_minus_q = Array.init n (fun _ -> Array.make n 0.0) in
      let b_deliver = Array.make n 0.0
      and b_strand = Array.make n 0.0
      and b_drop = Array.make n 0.0 in
      for i = 0 to n - 1 do
        identity_minus_q.(i).(i) <- 1.0;
        List.iter
          (fun (p, target) ->
            match target with
            | To j -> identity_minus_q.(i).(j) <- identity_minus_q.(i).(j) -. p
            | Absorb_delivered -> b_deliver.(i) <- b_deliver.(i) +. p
            | Absorb_stranded -> b_strand.(i) <- b_strand.(i) +. p
            | Absorb_dropped -> b_drop.(i) <- b_drop.(i) +. p)
          (Hashtbl.find dists i)
      done;
      let try_solve b = try Some (solve identity_minus_q b) with Failure _ -> None in
      let a_deliver = try_solve b_deliver in
      let a_strand = try_solve b_strand in
      let a_drop = try_solve b_drop in
      (* expected hops: t = 1 + Q t, i.e. (I - Q) t = 1 *)
      let t_hops = try_solve (Array.make n 1.0) in
      (* cost restricted to delivered trajectories:
         m_i = sum_j q_ij (1 * a_j + m_j) + (direct delivery prob * 1) *)
      let m_deliver =
        match a_deliver with
        | None -> None
        | Some a ->
          let rhs = Array.make n 0.0 in
          for i = 0 to n - 1 do
            List.iter
              (fun (p, target) ->
                match target with
                | To j -> rhs.(i) <- rhs.(i) +. (p *. a.(j))
                | Absorb_delivered -> rhs.(i) <- rhs.(i) +. p
                | Absorb_stranded | Absorb_dropped -> ())
              (Hashtbl.find dists i)
          done;
          try_solve rhs
      in
      let start_index = match start with To i -> i | _ -> assert false in
      let value opt default =
        match opt with Some arr -> arr.(start_index) | None -> default
      in
      let p_del = value a_deliver 0.0 in
      let p_str = value a_strand 0.0 in
      let p_drp = value a_drop 0.0 in
      let p_loop = Float.max 0.0 (1.0 -. p_del -. p_str -. p_drp) in
      {
        states = n;
        p_delivered = p_del;
        p_stranded = p_str;
        p_dropped = p_drp;
        p_loop;
        expected_hops =
          (if p_loop > 1e-9 then infinity else value t_hops infinity);
        expected_hops_delivered =
          (if p_del <= 1e-12 then nan
           else
             match m_deliver with
             | Some m -> m.(start_index) /. p_del
             | None -> nan);
      }
    end

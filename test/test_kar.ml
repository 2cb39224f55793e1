(* Tests for the KAR core library: the forwarding/deflection policies
   (section 2.1 semantics), route encoding (section 2.2), protection
   planning, switch-ID assignment, the controller, and the agreement
   between the exact Markov analysis and the Monte-Carlo walker. *)

module Z = Bignum.Z
module Graph = Topo.Graph
module Nets = Topo.Nets

let qtest ?(count = 200) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let rng () = Util.Prng.of_int 7

(* --- Policy: the forwarding decision on a synthetic 4-port switch --- *)

let live ?(down = []) n =
  List.fold_left (fun m p -> m land lnot (1 lsl p)) ((1 lsl n) - 1) down

(* One decision at switch 13 (computed port = route mod 13), resolved the
   way the data plane does: the output port (-1 = drop) and the packet's
   new deflected flag. *)
let forward ?(deflected = false) ?(down = []) policy ~route ~in_port rng =
  let choice =
    Kar.Policy.choose policy
      ~computed:(Kar.Policy.computed_port ~switch_id:13 ~route_id:(Z.of_int route))
      ~in_port ~deflected ~degree:4 ~live:(live ~down 4)
  in
  if choice < 0 then (lnot choice, deflected)
  else if choice > 0 then (Kar.Policy.pick rng choice, true)
  else (-1, deflected)

let test_computed_port () =
  Alcotest.(check int) "44 mod 4" 0 (Kar.Policy.computed_port ~switch_id:4 ~route_id:(Z.of_int 44));
  Alcotest.(check int) "44 mod 7" 2 (Kar.Policy.computed_port ~switch_id:7 ~route_id:(Z.of_int 44));
  Alcotest.(check int) "660 mod 5" 0 (Kar.Policy.computed_port ~switch_id:5 ~route_id:(Z.of_int 660))

let test_none_forwards_valid () =
  let port, defl = forward Kar.Policy.No_deflection ~route:2 ~in_port:0 (rng ()) in
  Alcotest.(check int) "forward 2" 2 port;
  Alcotest.(check bool) "not deflected" false defl

let test_none_drops_invalid_port () =
  (* route_id 7 mod 13 = 7 >= 4 ports: invalid *)
  let port, _ = forward Kar.Policy.No_deflection ~route:7 ~in_port:0 (rng ()) in
  Alcotest.(check int) "drop" (-1) port

let test_none_drops_down_port () =
  let port, _ =
    forward Kar.Policy.No_deflection ~down:[ 2 ] ~route:2 ~in_port:0 (rng ())
  in
  Alcotest.(check int) "drop" (-1) port

let test_avp_uses_computed_even_if_input () =
  (* computed = 2 = in_port: AVP still uses it ("allows to use its incoming
     port as an outgoing port in any case") *)
  let port, _ = forward Kar.Policy.Any_valid_port ~route:2 ~in_port:2 (rng ()) in
  Alcotest.(check int) "forward back out" 2 port

let test_nip_never_uses_input () =
  (* same situation: NIP must pick another port at random *)
  let r = rng () in
  for _ = 1 to 50 do
    let port, defl = forward Kar.Policy.Not_input_port ~route:2 ~in_port:2 r in
    if port < 0 then Alcotest.fail "should deflect, not drop";
    Alcotest.(check bool) "not input" true (port <> 2);
    Alcotest.(check bool) "marked deflected" true defl
  done

let test_nip_random_excludes_input_and_down () =
  let r = rng () in
  for _ = 1 to 50 do
    (* computed port 7 is invalid anyway *)
    let port, _ =
      forward Kar.Policy.Not_input_port ~down:[ 1 ] ~route:7 ~in_port:0 r
    in
    if port < 0 then Alcotest.fail "candidates exist";
    Alcotest.(check bool) "healthy, not input" true (port = 2 || port = 3)
  done

let test_nip_degree_one_returns () =
  (* only the input port is healthy: NIP sends the packet back rather than
     spinning (documented deviation from the paper's non-terminating
     Algorithm 1) *)
  let port, _ =
    forward Kar.Policy.Not_input_port ~down:[ 1; 2; 3 ] ~route:7 ~in_port:0
      (rng ())
  in
  Alcotest.(check int) "returns on input port" 0 port

let test_hp_random_after_first_deflection () =
  (* once deflected, HP ignores the computed port entirely *)
  let r = rng () in
  let seen = Hashtbl.create 4 in
  for _ = 1 to 200 do
    let port, defl =
      forward Kar.Policy.Hot_potato ~deflected:true ~route:2 ~in_port:0 r
    in
    Alcotest.(check bool) "stays deflected" true defl;
    if port < 0 then Alcotest.fail "healthy ports exist";
    Hashtbl.replace seen port ()
  done;
  Alcotest.(check int) "all four ports seen" 4 (Hashtbl.length seen)

let test_hp_not_deflected_follows_modulo () =
  let port, defl = forward Kar.Policy.Hot_potato ~route:2 ~in_port:0 (rng ()) in
  Alcotest.(check int) "follows computed" 2 port;
  Alcotest.(check bool) "not deflected" false defl

let test_all_drop_when_everything_down () =
  List.iter
    (fun policy ->
      let port, _ =
        forward policy ~down:[ 0; 1; 2; 3 ] ~route:2 ~in_port:0 (rng ())
      in
      Alcotest.(check int) (Kar.Policy.to_string policy) (-1) port)
    Kar.Policy.all

let test_policy_string_roundtrip () =
  List.iter
    (fun p ->
      Alcotest.(check bool) (Kar.Policy.to_string p) true
        (Kar.Policy.of_string (Kar.Policy.to_string p) = Some p))
    Kar.Policy.all;
  Alcotest.(check bool) "unknown" true (Kar.Policy.of_string "bogus" = None)

(* deflection draws are uniform over the candidate set; a singleton set
   consumes no draw *)
let test_deflection_uniformity () =
  let r = rng () in
  let counts = Array.make 4 0 in
  let n = 20_000 in
  for _ = 1 to n do
    let port, _ = forward Kar.Policy.Not_input_port ~route:7 ~in_port:0 r in
    if port >= 0 then counts.(port) <- counts.(port) + 1
  done;
  Alcotest.(check int) "input port never drawn" 0 counts.(0);
  (* three candidates, ~n/3 each within 5% *)
  List.iter
    (fun p ->
      let share = float_of_int counts.(p) /. float_of_int n in
      Alcotest.(check bool)
        (Printf.sprintf "port %d share %.3f" p share)
        true
        (Float.abs (share -. (1.0 /. 3.0)) < 0.017))
    [ 1; 2; 3 ];
  let a = rng () and b = rng () in
  Alcotest.(check int) "singleton mask picks its port" 5 (Kar.Policy.pick a (1 lsl 5));
  Alcotest.(check bool) "singleton mask makes no draw" true
    (Util.Prng.next a = Util.Prng.next b)

(* Section 2.1 written out naively over port lists: the reference the
   packed [choose] is checked against. *)
type reference = Take of int | Pick of int list | Stuck

let reference policy ~computed ~in_port ~deflected ~degree ~live =
  let healthy =
    List.filter (fun p -> live land (1 lsl p) <> 0) (List.init degree Fun.id)
  in
  let usable = List.mem computed healthy in
  let draw = function [] -> Stuck | ports -> Pick ports in
  match policy with
  | Kar.Policy.No_deflection -> if usable then Take computed else Stuck
  | Kar.Policy.Hot_potato ->
    if usable && not deflected then Take computed else draw healthy
  | Kar.Policy.Any_valid_port -> if usable then Take computed else draw healthy
  | Kar.Policy.Not_input_port ->
    if usable && computed <> in_port then Take computed
    else begin
      match List.filter (fun p -> p <> in_port) healthy with
      | [] -> if List.mem in_port healthy then Pick [ in_port ] else Stuck
      | others -> Pick others
    end

let decode choice =
  if choice < 0 then Take (lnot choice)
  else if choice = 0 then Stuck
  else
    Pick
      (List.filter
         (fun p -> choice land (1 lsl p) <> 0)
         (List.init Kar.Policy.max_degree Fun.id))

let test_choose_matches_reference () =
  for degree = 0 to 6 do
    for live = 0 to (1 lsl degree) - 1 do
      for in_port = -1 to degree - 1 do
        for computed = 0 to degree + 1 do
          List.iter
            (fun policy ->
              List.iter
                (fun deflected ->
                  let want =
                    reference policy ~computed ~in_port ~deflected ~degree ~live
                  in
                  let choice =
                    Kar.Policy.choose policy ~computed ~in_port ~deflected
                      ~degree ~live
                  in
                  if decode choice <> want then
                    Alcotest.failf
                      "%s deg=%d live=%#x in=%d computed=%d deflected=%b"
                      (Kar.Policy.to_string policy)
                      degree live in_port computed deflected;
                  match want with
                  | Pick ports ->
                    let port = Kar.Policy.pick (Util.Prng.of_int live) choice in
                    if not (List.mem port ports) then
                      Alcotest.failf "pick %d outside mask %#x" port choice
                  | Take _ | Stuck -> ())
                [ false; true ])
            Kar.Policy.all
        done
      done
    done
  done

(* forwarding decisions are always safe: the chosen port exists, is up,
   and NIP never returns the input port unless it is the only healthy one *)
let prop_forward_invariants =
  qtest ~count:2000 "forward returns only existing healthy ports"
    QCheck2.Gen.(
      let* degree = 1 -- 8 in
      let* down_mask = 0 -- ((1 lsl degree) - 1) in
      let* in_port = 0 -- (degree - 1) in
      let* route = 0 -- 10_000 in
      let* policy_idx = 0 -- 3 in
      let* deflected = bool in
      pure (degree, down_mask, in_port, route, policy_idx, deflected))
    (fun (degree, down_mask, in_port, route, policy_idx, deflected) ->
      let live = ((1 lsl degree) - 1) land lnot down_mask in
      let policy = List.nth Kar.Policy.all policy_idx in
      let choice =
        Kar.Policy.choose policy
          ~computed:
            (Kar.Policy.computed_port ~switch_id:10007 ~route_id:(Z.of_int route))
          ~in_port ~deflected ~degree ~live
      in
      choice = 0
      ||
      let p =
        if choice < 0 then lnot choice
        else Kar.Policy.pick (Util.Prng.of_int (route + down_mask)) choice
      in
      p >= 0 && p < degree
      && live land (1 lsl p) <> 0
      && (policy <> Kar.Policy.Not_input_port
         || p <> in_port
         || (* only-healthy-port exception *) live = 1 lsl in_port))

(* --- the zero-allocation fast path --- *)

let test_residue_cache () =
  let plan = Kar.Controller.scenario_plan Nets.net15 Kar.Controller.Full in
  let route_id = plan.Kar.Route.route_id in
  let buf = Wire.Flat.create () in
  let stamp route_id =
    Wire.Flat.stamp buf ~uid:1 ~src:0 ~dst:1 ~size_bytes:64 ~route_id
  in
  stamp route_id;
  (* every residue of the plan answers from the table, identically to the
     remainder kernel *)
  List.iter
    (fun r ->
      let sw = r.Rns.modulus in
      Alcotest.(check int)
        (Printf.sprintf "cached port at SW%d" sw)
        (Kar.Policy.computed_port ~switch_id:sw ~route_id)
        (Kar.Route.cached_port_flat plan buf ~switch_id:sw);
      Alcotest.(check int)
        (Printf.sprintf "port_at SW%d" sw)
        r.Rns.value
        (Kar.Route.port_at plan ~switch_id:sw))
    plan.Kar.Route.residues;
  (* switches outside the plan and foreign route IDs fall back to the
     kernel *)
  Alcotest.(check int) "unplanned switch" (Kar.Policy.computed_port ~switch_id:23 ~route_id)
    (Kar.Route.cached_port_flat plan buf ~switch_id:23);
  let other = Z.of_int 44 in
  stamp other;
  List.iter
    (fun r ->
      let sw = r.Rns.modulus in
      Alcotest.(check int)
        (Printf.sprintf "re-encoded packet at SW%d" sw)
        (Kar.Policy.computed_port ~switch_id:sw ~route_id:other)
        (Kar.Route.cached_port_flat plan buf ~switch_id:sw))
    plan.Kar.Route.residues

(* The acceptance bar of the fast-path work: a steady-state forwarding
   decision (cache lookup + NIP choice, healthy computed port) touches the
   minor heap not at all.  [Gc.minor_words] itself boxes its float result,
   so allow a small constant slack rather than demanding an exact zero.
   The switch's reader is built once, as Karnet builds it at install. *)
let check_forward_zero_alloc ?route_id () =
  let plan = Kar.Controller.scenario_plan Nets.net15 Kar.Controller.Full in
  let route_id = Option.value route_id ~default:plan.Kar.Route.route_id in
  let buf = Wire.Flat.create () in
  Wire.Flat.stamp buf ~uid:1 ~src:0 ~dst:1 ~size_bytes:64 ~route_id;
  let live = live 4 in
  let r = rng () in
  let port_at_13 = Kar.Route.cached_port_flat plan ~switch_id:13 in
  let decide () =
    let c = port_at_13 buf in
    let choice =
      Kar.Policy.choose Kar.Policy.Not_input_port ~computed:c ~in_port:0
        ~deflected:false ~degree:4 ~live
    in
    ignore
      (Sys.opaque_identity
         (if choice < 0 then lnot choice else Kar.Policy.pick r choice))
  in
  (* warm up: fault in closures/tables before counting *)
  for _ = 1 to 100 do decide () done;
  let iters = 100_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do decide () done;
  let delta = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words over %d decisions" delta iters)
    true (delta <= 256.0)

let test_forward_zero_alloc () = check_forward_zero_alloc ()

(* A packet re-encoded at an edge carries a route ID that misses the
   switch's cached residue, so the decision takes the remainder fold over
   the image's limbs.  net15's own IDs take the 2-limb fast path; a
   5-limb ID (131 bits, like the ~124-bit plans of dp-churn's uncached
   flows) takes the fold.  Its port at SW13 is 1, a live port that is not
   the input port, so no deflection draw is taken. *)
let test_forward_miss_zero_alloc () =
  let route_id = Z.add (Z.shift_left Z.one 130) (Z.of_int 12_341) in
  Alcotest.(check int) "5 limbs" 5 (Z.limb_count route_id);
  Alcotest.(check int) "port 1 at SW13" 1
    (Kar.Policy.computed_port ~switch_id:13 ~route_id);
  check_forward_zero_alloc ~route_id ()

(* --- Route encoding --- *)

let test_route_fig1 () =
  let sc = Nets.fig1_six in
  let plan = Kar.Controller.scenario_plan sc Kar.Controller.Unprotected in
  Alcotest.(check string) "R=44" "44" (Z.to_string plan.Kar.Route.route_id);
  let protected_plan = Kar.Controller.scenario_plan sc Kar.Controller.Partial in
  Alcotest.(check string) "R=660" "660" (Z.to_string protected_plan.Kar.Route.route_id);
  Alcotest.(check (list (triple int int int))) "verify clean" []
    (Kar.Route.verify protected_plan)

let test_route_table1_bits () =
  let sc = Nets.net15 in
  List.iter2
    (fun level (bits, switches) ->
      let plan = Kar.Controller.scenario_plan sc level in
      Alcotest.(check int) "bits" bits plan.Kar.Route.bit_length;
      Alcotest.(check int) "switches" switches (List.length plan.Kar.Route.residues))
    Kar.Controller.all_levels
    [ (15, 4); (28, 7); (43, 10) ]

let test_route_errors () =
  let sc = Nets.net15 in
  let g = sc.Nets.graph in
  (* non-adjacent consecutive switches *)
  (match Kar.Route.of_labels g [ 10; 29 ] ~egress_label:1003 with
   | Error (Kar.Route.Not_adjacent (10, 29)) -> ()
   | Error _ | Ok _ -> Alcotest.fail "expected Not_adjacent 10 29");
  (* duplicate switch *)
  (match
     Kar.Route.of_labels g [ 10; 7; 13; 29 ] ~egress_label:1003
     |> fun plan_result ->
     Result.bind plan_result (fun plan -> Kar.Route.protect g plan [ (10, 11) ])
   with
   | Error (Kar.Route.Duplicate_switch 10) -> ()
   | Error _ | Ok _ -> Alcotest.fail "expected Duplicate_switch 10");
  (* non-core node in the path *)
  match Kar.Route.of_labels g [ 1001; 10 ] ~egress_label:1003 with
  | Error (Kar.Route.Not_core 1001) | Error (Kar.Route.Not_adjacent _) -> ()
  | Error _ | Ok _ -> Alcotest.fail "expected failure for an edge node in path"

let test_route_verify_catches_mismatch () =
  let sc = Nets.net15 in
  let plan = Kar.Controller.scenario_plan sc Kar.Controller.Partial in
  (* rebuild the plan with a corrupted route id *)
  let broken = { plan with Kar.Route.route_id = Z.add plan.Kar.Route.route_id Z.one } in
  Alcotest.(check bool) "violations found" true (Kar.Route.verify broken <> [])

let test_next_hop_matches_residues () =
  let sc = Nets.rnp28 in
  let plan = Kar.Controller.scenario_plan sc Kar.Controller.Partial in
  List.iter
    (fun r ->
      Alcotest.(check int)
        (Printf.sprintf "SW%d" r.Rns.modulus)
        r.Rns.value
        (Kar.Route.port_at plan ~switch_id:r.Rns.modulus))
    plan.Kar.Route.residues

(* The reference for [Route.protect_skipping ~max_bits]: one
   [Route.protect] call per hop, a hop skipped when that call rejects it or
   its result's Eq. 9 bound exceeds [max_bits]. *)
let fold_protect ~max_bits g base hops =
  List.fold_left
    (fun acc hop ->
      match Kar.Route.protect g acc [ hop ] with
      | Ok p when p.Kar.Route.bit_length <= max_bits -> p
      | Ok _ | Error _ -> acc)
    base hops

(* A core SW5-SW7 between hosts 1001 and 1002, with neighbours whose hops
   [Route.protect] rejects for every reason it has: SW15 shares a factor
   with SW5 and SW9, SW1's ID is too small, SW2's third port (to SW7) is
   unencodable, and SW4 shares a factor with SW2. *)
let awkward_graph () =
  let b = Graph.Builder.create () in
  let node ?(kind = Graph.Core) l = Graph.Builder.add_node b ~kind l in
  let h1 = node ~kind:Graph.Edge 1001 in
  let h2 = node ~kind:Graph.Edge 1002 in
  let sw = Array.map node [| 5; 7; 9; 15; 1; 2; 4 |] in
  let link a c = ignore (Graph.Builder.add_link b a c) in
  link h1 sw.(0);
  link sw.(0) sw.(1);
  link sw.(1) h2;
  List.iter
    (fun (i, j) -> link sw.(i) sw.(j))
    [ (2, 0); (2, 1); (3, 0); (3, 1); (4, 1); (5, 0); (5, 2); (5, 1); (6, 2); (6, 3) ];
  (Graph.Builder.finish b, h1, h2)

(* Random hop lists over every label pair, adjacent or not, edge nodes and
   path switches included, under a random budget.  The base plan takes 6
   bits and every hop the other rules keep fits in 11, so budgets of 4 to
   12 bits cover a base already over budget, hops that fit, a hop skipped
   for size before a smaller one that fits, and no budget pressure; the
   default budget is checked too. *)
let prop_protect_skipping_matches_fold =
  let g, src, dst = awkward_graph () in
  let base = Kar.Controller.route g ~src ~dst ~protection:[] in
  let labels = Array.init (Graph.n_nodes g) (Graph.label g) in
  let n = Array.length labels in
  let hop =
    QCheck2.Gen.(
      map3
        (fun adjacent a k ->
          let v = Graph.node_of_label g labels.(a) in
          let next =
            if adjacent then
              List.nth (Graph.neighbors g v) (k mod Graph.degree g v)
            else Graph.node_of_label g labels.(k mod n)
          in
          (labels.(a), Graph.label g next))
        bool (int_bound (n - 1)) (int_bound 16))
  in
  qtest ~count:500 "protect_skipping = per-hop protect fold"
    QCheck2.Gen.(
      pair (list_size (int_bound 10) hop) (opt ~ratio:0.8 (int_range 4 12)))
    (fun (hops, budget) ->
      let got = Kar.Route.protect_skipping ?max_bits:budget g base hops in
      let want =
        fold_protect
          ~max_bits:(Option.value budget ~default:Wire.Header.max_route_bits)
          g base hops
      in
      Z.equal got.Kar.Route.route_id want.Kar.Route.route_id
      && Z.equal got.Kar.Route.modulus want.Kar.Route.modulus
      && got.Kar.Route.bit_length = want.Kar.Route.bit_length
      && got.Kar.Route.core_path = want.Kar.Route.core_path
      && got.Kar.Route.residues = want.Kar.Route.residues
      && got.Kar.Route.protection = want.Kar.Route.protection
      && Kar.Route.verify got = [])

(* --- Protection --- *)

let test_tree_hops_reach_dest () =
  let sc = Nets.rnp28 in
  let g = sc.Nets.graph in
  let dest = Graph.node_of_label g 73 in
  let members = List.map (Graph.label g) (Graph.core_nodes g) in
  let hops = Kar.Protection.tree_hops g ~dest members in
  (* every core switch except the destination gets a hop *)
  Alcotest.(check int) "27 hops" 27 (List.length hops);
  (* following hops from any member terminates at the destination *)
  let next = List.to_seq hops |> Hashtbl.of_seq in
  List.iter
    (fun (s, _) ->
      let rec follow l steps =
        if l = 73 then ()
        else if steps > 30 then Alcotest.failf "hop chain from %d loops" s
        else
          match Hashtbl.find_opt next l with
          | Some n -> follow n (steps + 1)
          | None -> Alcotest.failf "chain from %d dead-ends at %d" s l
      in
      follow s 0)
    hops

let test_off_path_members_ordering () =
  let sc = Nets.net15 in
  let g = sc.Nets.graph in
  let path = List.map (Graph.node_of_label g) sc.Nets.primary in
  let members = Kar.Protection.off_path_members g ~path ~radius:1 in
  (* radius 1 = the direct neighbours of the path, not the path itself *)
  Alcotest.(check bool) "no path nodes" true
    (List.for_all (fun m -> not (List.mem m sc.Nets.primary)) members);
  List.iter
    (fun m ->
      let v = Graph.node_of_label g m in
      Alcotest.(check bool)
        (Printf.sprintf "SW%d adjacent to path" m)
        true
        (List.exists (fun p -> Graph.link_between g v p <> None) path))
    members

(* A plain reference for [off_path_members]: a multi-source BFS from the
   path over every core-core link of the component, with no radius
   cut-off, then the core nodes off the path within [radius], by distance
   and label. *)
let reference_off_path_members g ~path ~radius =
  let core_link l =
    Graph.is_core g l.Graph.ep0.Graph.node && Graph.is_core g l.Graph.ep1.Graph.node
  in
  let dist = Array.make (Graph.n_nodes g) max_int in
  let q = Queue.create () in
  List.iter
    (fun v ->
      dist.(v) <- 0;
      Queue.add v q)
    path;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    List.iter
      (fun (_, l, far) ->
        if core_link l && dist.(far) = max_int then begin
          dist.(far) <- dist.(v) + 1;
          Queue.add far q
        end)
      (Graph.ports g v)
  done;
  Graph.core_nodes g
  |> List.filter (fun v ->
         (not (List.mem v path)) && dist.(v) <> max_int && dist.(v) <= radius)
  |> List.map (fun v -> (dist.(v), Graph.label g v))
  |> List.sort Stdlib.compare
  |> List.map snd

(* Waxman cores of 6-30 switches with hosts on a few of them; the path is
   the core interior of a shortest path between two hosts. *)
let prop_off_path_members_reference =
  qtest ~count:200 "off_path_members = full BFS then filter"
    QCheck2.Gen.(triple (6 -- 30) (1 -- 10_000) (pair nat nat))
    (fun (n, seed, (a, b)) ->
      let core = Topo.Gen.waxman ~n ~alpha:0.9 ~beta:0.3 ~seed in
      let g, hosts =
        Topo.Gen.with_edge_hosts core (List.init (min n 5) (fun i -> i * (n / 5)))
      in
      let hosts = Array.of_list hosts in
      let src = hosts.(a mod Array.length hosts)
      and dst = hosts.(b mod Array.length hosts) in
      let path =
        match Topo.Paths.shortest_path g src dst with
        | Some (_ :: (_ :: _ as rest)) -> List.filter (Graph.is_core g) rest
        | Some _ | None -> []
      in
      List.for_all
        (fun radius ->
          Kar.Protection.off_path_members g ~path ~radius
          = reference_off_path_members g ~path ~radius)
        [ 0; 1; 2; max_int ])

let test_budget_monotone () =
  let sc = Nets.net15 in
  let g = sc.Nets.graph in
  let base = Kar.Controller.scenario_plan sc Kar.Controller.Unprotected in
  let dest = Graph.node_of_label g 29 in
  let path = List.map (Graph.node_of_label g) sc.Nets.primary in
  let members = Kar.Protection.off_path_members g ~path ~radius:max_int in
  let hops = Kar.Protection.tree_hops g ~dest members in
  let sizes =
    List.map
      (fun bits ->
        let plan = Kar.Route.protect_skipping ~max_bits:bits g base hops in
        Alcotest.(check bool) "respects budget" true (plan.Kar.Route.bit_length <= bits);
        List.length plan.Kar.Route.protection)
      [ 15; 30; 60; 120 ]
  in
  Alcotest.(check bool) "monotone" true (List.sort Stdlib.compare sizes = sizes)

let test_coverage_values () =
  (* the three coverage numbers behind the paper's section 3.2 narrative *)
  let sc = Nets.rnp28 in
  let plan = Kar.Controller.scenario_plan sc Kar.Controller.Partial in
  let cov name =
    let fc = List.find (fun fc -> fc.Nets.name = name) sc.Nets.failures in
    Kar.Protection.coverage sc.Nets.graph ~plan ~failed:fc.Nets.link
  in
  Alcotest.(check (float 0.001)) "SW7-SW13 fully covered" 1.0 (cov "SW7-SW13");
  Alcotest.(check (float 0.001)) "SW13-SW41: 2 of 5" 0.4 (cov "SW13-SW41");
  Alcotest.(check (float 0.001)) "SW41-SW73 fully covered" 1.0 (cov "SW41-SW73")

(* --- Ids --- *)

let test_primes () =
  Alcotest.(check (list int)) "first 6" [ 2; 3; 5; 7; 11; 13 ] (Kar.Ids.primes 6);
  Alcotest.(check bool) "97 prime" true (Kar.Ids.is_prime 97);
  Alcotest.(check bool) "1 not prime" false (Kar.Ids.is_prime 1);
  Alcotest.(check bool) "91 = 7*13" false (Kar.Ids.is_prime 91)

let strategies =
  [ Kar.Ids.Primes_ascending; Kar.Ids.Degree_descending; Kar.Ids.Prime_powers;
    Kar.Ids.Random_primes 3 ]

let prop_assign_valid =
  qtest ~count:20 "assignment is valid on random graphs"
    QCheck2.Gen.(pair (1 -- 500) (0 -- 3))
    (fun (seed, si) ->
      let g = Topo.Gen.gnp ~n:20 ~p:0.25 ~seed in
      let strategy = List.nth strategies si in
      Kar.Ids.validate (Kar.Ids.assign g strategy) = [])

let test_assign_preserves_edges () =
  let g, hosts = Topo.Gen.with_edge_hosts (Topo.Gen.ring 6) [ 0; 3 ] in
  let g' = Kar.Ids.assign g Kar.Ids.Primes_ascending in
  List.iter
    (fun h ->
      Alcotest.(check int) "edge label kept" (Graph.label g h) (Graph.label g' h))
    hosts

let test_mean_route_bits_sane () =
  let g = Kar.Ids.assign (Topo.Gen.ring 8) Kar.Ids.Primes_ascending in
  let bits = Kar.Ids.mean_route_bits g ~trials:100 ~seed:5 in
  Alcotest.(check bool) "positive and bounded" true (bits > 1.0 && bits < 64.0)

(* Random pairwise-coprime core topologies: a connected G(n,p) graph whose
   core switches get distinct primes larger than their degree.  Any plan
   built over such a labelling must satisfy Eq. 3 literally — every residue
   is recovered by [route_id mod switch_id] — and folding protection hops
   in (which re-runs the CRT with extra residues) must preserve that for
   old and new residues alike. *)

let prop_coprime_plan_residues =
  qtest ~count:50 "Eq. 3 on random coprime topologies (incl. protected)"
    QCheck2.Gen.(triple (1 -- 1000) (6 -- 14) (0 -- 10_000))
    (fun (seed, n, pick) ->
      let g = Topo.Gen.gnp ~n ~p:0.3 ~seed in
      let g = Kar.Ids.assign g (Kar.Ids.Random_primes seed) in
      (* labelling invariants: distinct primes, each > degree *)
      let labelling_ok =
        Kar.Ids.validate g = []
        && List.for_all
             (fun v ->
               let id = Graph.label g v in
               Kar.Ids.is_prime id && id > Graph.degree g v)
             (Graph.core_nodes g)
      in
      let nodes = Array.of_list (Graph.core_nodes g) in
      let src = nodes.(pick mod n) and dst = nodes.((pick / n) mod n) in
      if (not labelling_ok) || src = dst then labelling_ok
      else
        match Topo.Paths.shortest_path g src dst with
        | None -> false (* gnp is conditioned on connectivity *)
        | Some path -> (
            match Kar.Route.of_core_path g path ~egress_port:0 with
            | Error _ -> false
            | Ok plan ->
                let residues_recovered (plan : Kar.Route.plan) =
                  List.for_all
                    (fun r ->
                      Z.equal
                        (Z.rem plan.Kar.Route.route_id (Z.of_int r.Rns.modulus))
                        (Z.of_int r.Rns.value))
                    plan.Kar.Route.residues
                in
                (* one protection hop: an off-path neighbour of a path
                   node, driven back onto the path *)
                let in_plan l =
                  List.exists (fun r -> r.Rns.modulus = l) plan.Kar.Route.residues
                in
                let hop =
                  List.find_map
                    (fun v ->
                      List.find_map
                        (fun w ->
                          if Graph.is_core g w && not (in_plan (Graph.label g w))
                          then Some (Graph.label g w, Graph.label g v)
                          else None)
                        (Graph.neighbors g v))
                    path
                in
                residues_recovered plan
                && (match hop with
                    | None -> true (* path covers the whole graph *)
                    | Some hop -> (
                        match Kar.Route.protect g plan [ hop ] with
                        | Error _ -> false
                        | Ok protected_ ->
                            List.length protected_.Kar.Route.residues
                            = List.length plan.Kar.Route.residues + 1
                            && residues_recovered protected_))))

(* --- Controller --- *)

let test_scenario_plans_verify () =
  List.iter
    (fun sc ->
      List.iter
        (fun level ->
          let plan = Kar.Controller.scenario_plan sc level in
          Alcotest.(check (list (triple int int int))) "forward verifies" []
            (Kar.Route.verify plan);
          let rev = Kar.Controller.scenario_reverse_plan sc level in
          Alcotest.(check (list (triple int int int))) "reverse verifies" []
            (Kar.Route.verify rev))
        Kar.Controller.all_levels)
    [ Nets.fig1_six; Nets.net15; Nets.rnp28; Nets.rnp_fig8 ]

let test_reverse_plan_edge_disjoint () =
  let sc = Nets.rnp28 in
  let g = sc.Nets.graph in
  let fwd_links =
    Topo.Paths.path_links g (List.map (Graph.node_of_label g) sc.Nets.primary)
  in
  let rev = Kar.Controller.scenario_reverse_plan sc Kar.Controller.Partial in
  let rev_links = Topo.Paths.path_links g rev.Kar.Route.core_path in
  List.iter
    (fun l ->
      Alcotest.(check bool) "disjoint" true (not (List.mem l fwd_links)))
    rev_links

let test_reencode_cache () =
  let sc = Nets.net15 in
  let cache = Kar.Controller.create_cache sc.Nets.graph in
  let r1 = Kar.Controller.reencode cache ~at:sc.Nets.ingress ~dst:sc.Nets.egress in
  let r2 = Kar.Controller.reencode cache ~at:sc.Nets.ingress ~dst:sc.Nets.egress in
  Alcotest.(check bool) "some route" true (r1 <> None);
  Alcotest.(check bool) "memoised identical" true (r1 = r2);
  (* the counter proves the second call reused the plan *)
  Alcotest.(check int) "one plan computed" 1 (Kar.Controller.plans_computed cache);
  let _ = Kar.Controller.reencode cache ~at:sc.Nets.egress ~dst:sc.Nets.ingress in
  Alcotest.(check int) "direction is part of the key" 2
    (Kar.Controller.plans_computed cache)

(* A stranded packet already at its destination edge has no route to plan:
   re-encode answers None (the edge delivers locally) rather than raising. *)
let test_reencode_at_destination () =
  let sc = Nets.net15 in
  let cache = Kar.Controller.create_cache sc.Nets.graph in
  Alcotest.(check bool) "self is None" true
    (Kar.Controller.reencode cache ~at:sc.Nets.egress ~dst:sc.Nets.egress = None);
  Alcotest.(check int) "failure was computed once" 1
    (Kar.Controller.plans_computed cache);
  (* and the failure is negative-cached, not recomputed *)
  Alcotest.(check bool) "still None" true
    (Kar.Controller.reencode cache ~at:sc.Nets.egress ~dst:sc.Nets.egress = None);
  Alcotest.(check int) "negative-cached" 1 (Kar.Controller.plans_computed cache)

(* An edge node with no links at all: unreachable destination -> None,
   negative-cached like any other failed plan. *)
let test_reencode_unreachable () =
  let b = Graph.Builder.create () in
  let c2 = Graph.Builder.add_node b ~kind:Graph.Core 2 in
  let c3 = Graph.Builder.add_node b ~kind:Graph.Core 3 in
  let e0 = Graph.Builder.add_node b ~kind:Graph.Edge 1000 in
  let island = Graph.Builder.add_node b ~kind:Graph.Edge 1001 in
  let _ = Graph.Builder.add_link b e0 c2 in
  let _ = Graph.Builder.add_link b c2 c3 in
  let g = Graph.Builder.finish b in
  let cache = Kar.Controller.create_cache g in
  Alcotest.(check bool) "unreachable is None" true
    (Kar.Controller.reencode cache ~at:e0 ~dst:island = None);
  Alcotest.(check bool) "still None on retry" true
    (Kar.Controller.reencode cache ~at:e0 ~dst:island = None);
  Alcotest.(check int) "planned once" 1 (Kar.Controller.plans_computed cache)

let test_disjoint_plans () =
  let sc = Nets.net15 in
  let g = sc.Nets.graph in
  let plans =
    Kar.Controller.disjoint_plans g ~src:sc.Nets.ingress ~dst:sc.Nets.egress ~k:3
  in
  Alcotest.(check bool) "at least two" true (List.length plans >= 2);
  (* pairwise edge-disjoint over core links *)
  let link_sets =
    List.map (fun p -> Topo.Paths.path_links g p.Kar.Route.core_path) plans
  in
  let rec pairwise = function
    | [] -> ()
    | s :: rest ->
      List.iter
        (fun t ->
          List.iter
            (fun l ->
              Alcotest.(check bool) "disjoint core links" false (List.mem l t))
            s)
        rest;
      pairwise rest
  in
  pairwise link_sets;
  (* every plan verifies and delivers on the healthy network *)
  List.iter
    (fun plan ->
      Alcotest.(check (list (triple int int int))) "verifies" [] (Kar.Route.verify plan);
      let a =
        Kar.Markov.analyze g ~plan ~policy:Kar.Policy.Not_input_port ~failed:[]
          ~src:sc.Nets.ingress ~dst:sc.Nets.egress
      in
      Alcotest.(check (float 1e-9)) "delivers" 1.0 a.Kar.Markov.p_delivered)
    plans

let test_disjoint_plans_survive_each_other () =
  (* failing any link of plan 0 leaves plan 1 deliverable: the 1+1 basis *)
  let sc = Nets.net15 in
  let g = sc.Nets.graph in
  match Kar.Controller.disjoint_plans g ~src:sc.Nets.ingress ~dst:sc.Nets.egress ~k:2 with
  | p0 :: p1 :: _ ->
    List.iter
      (fun failed_link ->
        let a =
          Kar.Markov.analyze g ~plan:p1 ~policy:Kar.Policy.No_deflection
            ~failed:[ failed_link ] ~src:sc.Nets.ingress ~dst:sc.Nets.egress
        in
        Alcotest.(check (float 1e-9)) "backup unaffected" 1.0 a.Kar.Markov.p_delivered)
      (Topo.Paths.path_links g p0.Kar.Route.core_path)
  | _ -> Alcotest.fail "need two disjoint plans"

let test_controller_route_follows_shortest () =
  let sc = Nets.net15 in
  let plan =
    Kar.Controller.route sc.Nets.graph ~src:sc.Nets.ingress ~dst:sc.Nets.egress
      ~protection:[]
  in
  (* shortest AS1 -> AS3 is via the primary 10-7-13-29 (4 core hops) *)
  Alcotest.(check int) "4 switches" 4 (List.length plan.Kar.Route.residues)

(* What planning allocates does not grow with the switch IDs on the route:
   through SW29 relabelled 100000007 a plan costs kilobytes (a table
   indexed by switch ID would take 800 MB). *)
let test_controller_route_large_switch_id () =
  let sc = Nets.net15 in
  let g = sc.Nets.graph in
  let big = 100_000_007 in
  let g =
    Graph.relabel g
      (Array.init (Graph.n_nodes g) (fun v ->
           let l = Graph.label g v in
           if l = 29 then big else l))
  in
  let before = Gc.allocated_bytes () in
  let plan =
    Kar.Controller.route g ~src:sc.Nets.ingress ~dst:sc.Nets.egress ~protection:[]
  in
  let bytes = Gc.allocated_bytes () -. before in
  Alcotest.(check bool) "route crosses the relabelled switch" true
    (Kar.Route.is_protected plan big);
  Alcotest.(check (list (triple int int int))) "verifies" [] (Kar.Route.verify plan);
  Alcotest.(check bool) (Printf.sprintf "%.0f bytes allocated" bytes) true (bytes < 1e6)

(* --- One protection recipe --- *)

(* Every field of a plan, or the message of the [Invalid_argument] that
   planning raised. *)
let plan_fields f =
  match f () with
  | exception Invalid_argument msg -> Error msg
  | p ->
    Ok
      ( Z.to_string p.Kar.Route.route_id,
        Z.to_string p.Kar.Route.modulus,
        List.map (fun r -> (r.Rns.modulus, r.Rns.value)) p.Kar.Route.residues,
        p.Kar.Route.core_path,
        p.Kar.Route.protection,
        p.Kar.Route.bit_length )

(* The reference for [Controller.protected_route], composed from plain
   parts: the primary path read off a full breadth-first search under the
   no-edge-transit predicate, the level's members from the reference
   above, each member's hop from a core-link tree searched afresh on
   every call, and the per-hop [fold_protect] under the budget. *)
let reference_protected ?usable ?(max_bits = Wire.Header.max_route_bits) g ~src ~dst
    ~level =
  let transit v = Graph.is_core g v || v = src || v = dst in
  let usable l =
    transit l.Graph.ep0.Graph.node
    && transit l.Graph.ep1.Graph.node
    && match usable with None -> true | Some f -> f l
  in
  let _, parent = Topo.Paths.bfs g ~usable src in
  let rec back acc v = if v = src then src :: acc else back (v :: acc) parent.(v) in
  let core =
    if src = dst then invalid_arg "Controller.route: degenerate path"
    else if parent.(dst) < 0 then
      invalid_arg
        (Printf.sprintf "Controller.route: no path between %d and %d" src dst)
    else
      match back [] dst with
      | _ :: rest -> List.filter (fun v -> v <> dst) rest
      | [] -> []
  in
  let base =
    Kar.Route.of_labels_exn g (List.map (Graph.label g) core)
      ~egress_label:(Graph.label g dst)
  in
  let radius =
    match level with
    | Kar.Controller.Unprotected -> None
    | Kar.Controller.Partial -> Some 1
    | Kar.Controller.Full -> Some max_int
  in
  match (radius, List.rev core) with
  | None, _ | _, [] -> base
  | Some radius, dest :: _ ->
    let core_link l =
      Graph.is_core g l.Graph.ep0.Graph.node && Graph.is_core g l.Graph.ep1.Graph.node
    in
    let dist, tree = Topo.Paths.bfs g ~usable:core_link dest in
    let hops =
      List.filter_map
        (fun m_label ->
          let m = Graph.node_of_label g m_label in
          if m = dest || dist.(m) = max_int then None
          else Some (m_label, Graph.label g tree.(m)))
        (reference_off_path_members g ~path:core ~radius)
    in
    fold_protect ~max_bits g base hops

let test_protected_route_matches_fold () =
  List.iter
    (fun (name, g) ->
      let edges = Graph.edge_nodes g in
      let pairs =
        List.concat_map
          (fun src ->
            List.filter_map
              (fun dst -> if src = dst then None else Some (src, dst))
              edges)
          edges
      in
      (* a core link on some pair's primary path *)
      let dropped =
        List.find_map
          (fun (src, dst) ->
            let plan = Kar.Controller.route g ~src ~dst ~protection:[] in
            List.nth_opt (Topo.Paths.path_links g plan.Kar.Route.core_path) 0)
          pairs
        |> Option.get
      in
      let sweep view usable =
        let outcomes =
          List.concat_map
            (fun (src, dst) ->
              List.map
                (fun level ->
                  let got =
                    plan_fields (fun () ->
                        Kar.Controller.protected_route ?usable g ~src ~dst ~level)
                  in
                  let want =
                    plan_fields (fun () ->
                        reference_protected ?usable g ~src ~dst ~level)
                  in
                  let case =
                    Printf.sprintf "%d->%d %s" (Graph.label g src)
                      (Graph.label g dst) (Kar.Controller.level_to_string level)
                  in
                  (case, got, want))
                Kar.Controller.all_levels)
            pairs
        in
        Alcotest.(check (list string))
          (Printf.sprintf "%s, %s: protected_route = per-hop fold" name view)
          []
          (List.filter_map
             (fun (case, got, want) -> if got = want then None else Some case)
             outcomes);
        Alcotest.(check bool) (name ^ ", " ^ view ^ ": pairs planned") true
          (List.exists (fun (_, got, _) -> Result.is_ok got) outcomes);
        List.map (fun (_, got, _) -> got) outcomes
      in
      let all = sweep "all links" None in
      let degraded =
        sweep "one core link down" (Some (fun l -> l.Graph.id <> dropped))
      in
      (* the dropped link moves some primary path, so ~usable is exercised *)
      Alcotest.(check bool) (name ^ ": dropping a link changes a plan") true
        (all <> degraded))
    [ ("net15", Nets.net15.Nets.graph);
      ("rnp28", Nets.rnp28.Nets.graph);
      ("gen:16", Experiments.Service.testbed ~n_core:16 ()) ]

(* A labelling whose only problem is advisory: SW2 (ID 2) has a third
   port, which no residue modulo 2 can name.  Core line SW7-SW11-SW13
   between hosts 1001 and 1002; SW2 links to SW7, SW11 and SW13 in that
   order (its hop to SW13 is port 2); SW3 links to SW7 and SW13. *)
let advisory_graph () =
  let b = Graph.Builder.create () in
  let node ?(kind = Graph.Core) l = Graph.Builder.add_node b ~kind l in
  let h1 = node ~kind:Graph.Edge 1001 in
  let h2 = node ~kind:Graph.Edge 1002 in
  let sw7 = node 7 in
  let sw11 = node 11 in
  let sw13 = node 13 in
  let sw2 = node 2 in
  let sw3 = node 3 in
  List.iter
    (fun (a, c) -> ignore (Graph.Builder.add_link b a c))
    [ (h1, sw7); (sw7, sw11); (sw11, sw13); (sw13, h2);
      (sw2, sw7); (sw2, sw11); (sw2, sw13);
      (sw3, sw7); (sw3, sw13) ];
  (Graph.Builder.finish b, h1, h2)

let test_protected_route_advisory_labels () =
  let g, src, dst = advisory_graph () in
  Alcotest.(check bool) "only the advisory port issue" true
    (Kar.Ids.validate_issues g = [ Kar.Ids.Port_unencodable { id = 2; degree = 3 } ]);
  let plan =
    Kar.Controller.protected_route g ~src ~dst ~level:Kar.Controller.Partial
  in
  Alcotest.(check (list int)) "primary SW7-SW11-SW13" [ 7; 11; 13 ]
    (List.map (Graph.label g) plan.Kar.Route.core_path);
  (* SW2's hop to SW13 is skipped, SW3's is kept *)
  Alcotest.(check (list (pair int int))) "protection" [ (3, 13) ]
    plan.Kar.Route.protection;
  Alcotest.(check int) "residues recovered" 0
    (List.length (Kar.Route.verify plan));
  let server = Kar_service.Server.create ~graph:g () in
  let report =
    Kar_service.Server.run server
      [| { Kar_service.Workload.seq = 0; arrival = 0.0; src; dst;
           level = Kar.Controller.Partial; policy = Kar.Policy.Not_input_port } |]
  in
  Alcotest.(check int) "server planned it" 1 report.Kar_service.Server.planned;
  Alcotest.(check int) "server routed it" 0 report.Kar_service.Server.unroutable

(* The planner's allocation budget: on the 32-switch serving testbed,
   after a warm-up sweep (which also builds the destination trees),
   [protected_route] averages at most 590 minor words per unprotected
   plan, 2,650 per partial and 3,550 per full plan over all 992 ordered
   edge pairs, about 25% above the 472, 2,126 and 2,861 measured.  A plan
   allocates its result, its lists and the CRT accumulator's buffers; the
   graph searches allocate their arrays and nothing per visited node. *)
let test_plan_minor_words () =
  let g = Experiments.Service.testbed ~n_core:32 () in
  let edges = Graph.edge_nodes g in
  let pairs =
    List.concat_map
      (fun src ->
        List.filter_map (fun dst -> if src = dst then None else Some (src, dst)) edges)
      edges
  in
  Alcotest.(check int) "ordered edge pairs" 992 (List.length pairs);
  let sweep level =
    List.iter
      (fun (src, dst) ->
        ignore
          (Sys.opaque_identity (Kar.Controller.protected_route g ~src ~dst ~level)))
      pairs
  in
  List.iter
    (fun (level, bound) ->
      sweep level;
      let w0 = Gc.minor_words () in
      sweep level;
      let per_plan = (Gc.minor_words () -. w0) /. float_of_int (List.length pairs) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f minor words per plan (<= %.0f)"
           (Kar.Controller.level_to_string level) per_plan bound)
        true (per_plan <= bound))
    [ (Kar.Controller.Unprotected, 590.0); (Kar.Controller.Partial, 2_650.0);
      (Kar.Controller.Full, 3_550.0) ]

(* --- The planner against the parent's pipeline --- *)

(* Random Waxman, G(n,p), grid and torus cores, labelled by a random
   [Ids] strategy, with hosts on a few switches, a random failed-link set
   (each link with probability 1/10, which may disconnect pairs), three
   host pairs (one in twenty a host twice), every level, and a budget
   that is small, the header's or unbounded. *)
let prop_planner_matches_reference =
  let graph =
    QCheck2.Gen.(
      let* family = 0 -- 3 and* seed = 1 -- 10_000 and* strategy = 0 -- 3 in
      let* core =
        match family with
        | 0 -> map (fun n -> Topo.Gen.waxman ~n ~alpha:0.9 ~beta:0.4 ~seed) (4 -- 30)
        | 1 -> map (fun n -> Topo.Gen.gnp ~n ~p:0.25 ~seed) (4 -- 30)
        | 2 -> map2 (fun w h -> Topo.Gen.grid ~w ~h) (2 -- 5) (2 -- 5)
        | _ -> map2 (fun w h -> Topo.Gen.torus ~w ~h) (3 -- 5) (3 -- 5)
      in
      let strategy =
        match strategy with
        | 0 -> Kar.Ids.Primes_ascending
        | 1 -> Kar.Ids.Degree_descending
        | 2 -> Kar.Ids.Prime_powers
        | _ -> Kar.Ids.Random_primes seed
      in
      let core = Kar.Ids.assign core strategy in
      let n = Graph.n_nodes core in
      let* attach = list_size (3 -- 8) (0 -- (n - 1)) in
      let g, hosts = Topo.Gen.with_edge_hosts core (List.sort_uniq compare attach) in
      let* failed = array_repeat (Graph.n_links g) (map (fun k -> k = 0) (0 -- 9)) in
      let hosts = Array.of_list hosts in
      let h = Array.length hosts in
      let pair i k same =
        let j = if same = 0 || h = 1 then i else (i + 1 + (k mod (h - 1))) mod h in
        (hosts.(i), hosts.(j))
      in
      let* pairs = list_repeat 3 (map3 pair (0 -- (h - 1)) nat (0 -- 19)) in
      let* budget = oneofl [ Some 24; Some 60; None; Some max_int ] in
      pure (g, failed, pairs, budget))
  in
  qtest ~count:300 "protected_route = full search, fresh trees, per-hop fold" graph
    (fun (g, failed, pairs, max_bits) ->
      let usable l = not failed.(l.Graph.id) in
      List.for_all
        (fun (src, dst) ->
          List.for_all
            (fun level ->
              plan_fields (fun () ->
                  Kar.Controller.protected_route ~usable ?max_bits g ~src ~dst ~level)
              = plan_fields (fun () ->
                    reference_protected ~usable ?max_bits g ~src ~dst ~level))
            Kar.Controller.all_levels)
        pairs)

(* Every ordered gen:32 pair at every level: the plan fields. *)
let sweep_fields plan g =
  let edges = Graph.edge_nodes g in
  let cases =
    List.concat_map
      (fun src ->
        List.concat_map
          (fun dst ->
            if src = dst then []
            else List.map (fun level -> (src, dst, level)) Kar.Controller.all_levels)
          edges)
      edges
    |> Array.of_list
  in
  Alcotest.(check int) "992 pairs x 3 levels" 2976 (Array.length cases);
  plan cases ~f:(fun ~idx:_ (src, dst, level) ->
      plan_fields (fun () -> Kar.Controller.protected_route g ~src ~dst ~level))

(* Two domains plan on one fresh graph, so they fill its destination trees
   at once; the plans equal a serial sweep on another fresh graph.  The
   same holds on a relabelled copy of the swept graph, which shares its
   filled trees, against a relabelled fresh graph. *)
let test_concurrent_tree_fill () =
  let testbed () = Experiments.Service.testbed ~n_core:32 () in
  let serial cases ~f = Array.mapi (fun idx c -> f ~idx c) cases in
  let pool = Util.Pool.create ~jobs:2 in
  Fun.protect
    ~finally:(fun () -> Util.Pool.shutdown pool)
    (fun () ->
      let shared = testbed () in
      Alcotest.(check bool) "2 domains = serial" true
        (sweep_fields (Util.Pool.map pool) shared = sweep_fields serial (testbed ()));
      let relabel g = Kar.Ids.assign g (Kar.Ids.Random_primes 3) in
      Alcotest.(check bool) "after relabel: 2 domains = serial" true
        (sweep_fields (Util.Pool.map pool) (relabel shared)
        = sweep_fields serial (relabel (testbed ()))))

(* The planner's output on the serving testbeds is pinned: a fresh digest
   equals the committed one. *)
let test_plan_digests_match_fixture () =
  let path =
    let f = "fixtures/plan_digests.jsonl" in
    if Sys.file_exists f then f else Filename.concat "test" f
  in
  let ic = open_in_bin path in
  let golden = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check string)
    "fresh plan digests equal the committed fixture (regenerate with \
     test/gen_fixtures.exe after an intentional change to the planner)"
    golden
    (Experiments.Service.plan_digests ())

(* --- The header budget --- *)

(* On the 128-switch serving testbed a full plan folds in enough tree hops
   to pass the header's 992 bits, so the budget, not the level, bounds what
   the planner hands out.  50 ordered pairs, every level: each plan fits
   and stamps into a packet image, and every fifth pair's plans equal the
   per-hop reference (a full one costs ~100 CRT folds). *)
let test_protected_route_fits_header () =
  let g = Experiments.Service.testbed ~n_core:128 () in
  let edges = Array.of_list (Graph.edge_nodes g) in
  let n = Array.length edges in
  let pairs =
    List.init 50 (fun i ->
        (edges.(i * 13 mod n), edges.((i * 13 + 1 + (i * 7 mod (n - 1))) mod n)))
  in
  let buf = Wire.Flat.create () in
  let check i (src, dst) level =
    let plan = Kar.Controller.protected_route g ~src ~dst ~level in
    let stamps =
      match Wire.Flat.set_route_id buf plan.Kar.Route.route_id with
      | () -> true
      | exception Invalid_argument _ -> false
    in
    if plan.Kar.Route.bit_length <= Wire.Header.max_route_bits && stamps
       && (i mod 5 <> 0
          || plan_fields (fun () -> plan)
             = plan_fields (fun () -> reference_protected g ~src ~dst ~level))
    then None
    else
      Some
        (Printf.sprintf "%d->%d %s: %d bits" (Graph.label g src)
           (Graph.label g dst) (Kar.Controller.level_to_string level)
           plan.Kar.Route.bit_length)
  in
  let bad =
    List.concat
      (List.mapi
         (fun i pair -> List.filter_map (check i pair) Kar.Controller.all_levels)
         pairs)
  in
  Alcotest.(check (list string)) "plans over the header or off the reference" []
    bad;
  (* the budget binds: unbounded, some full plan is wider than the header *)
  Alcotest.(check bool) "an unbounded full plan exceeds the header" true
    (List.exists
       (fun (src, dst) ->
         (Kar.Controller.protected_route ~max_bits:max_int g ~src ~dst
            ~level:Kar.Controller.Full)
           .Kar.Route.bit_length > Wire.Header.max_route_bits)
       pairs)

(* A 160-switch chain labelled with ascending primes, with hosts at both
   ends and one beside [dst]: the end-to-end path's own route ID needs
   1,310 bits. *)
let test_path_wider_than_header () =
  let g, hosts = Topo.Gen.with_edge_hosts (Topo.Gen.line 160) [ 0; 159; 158 ] in
  let g = Kar.Ids.assign g Kar.Ids.Primes_ascending in
  let src, dst, near =
    match hosts with [ a; b; c ] -> (a, b, c) | _ -> Alcotest.fail "three hosts"
  in
  let labels = List.map (Graph.label g) (Graph.core_nodes g) in
  let want = Rns.bit_length_bound (Rns.modulus_product labels) in
  Alcotest.(check int) "1310-bit path" 1310 want;
  (match Kar.Route.of_labels g labels ~egress_label:(Graph.label g dst) with
   | Error (Kar.Route.Exceeds_header bits) -> Alcotest.(check int) "bits" want bits
   | Error e -> Alcotest.failf "unexpected error %a" Kar.Route.pp_error e
   | Ok _ -> Alcotest.fail "a 1310-bit path encoded");
  let raises f =
    match f () with
    | (_ : Kar.Route.plan) -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "route raises" true
    (raises (fun () -> Kar.Controller.route g ~src ~dst ~protection:[]));
  List.iter
    (fun level ->
      Alcotest.(check bool)
        (Kar.Controller.level_to_string level ^ " protected_route raises")
        true
        (raises (fun () ->
             Kar.Controller.protected_route ~max_bits:max_int g ~src ~dst ~level)))
    Kar.Controller.all_levels;
  let cache = Kar.Controller.create_cache g in
  Alcotest.(check bool) "re-encode is None" true
    (Kar.Controller.reencode cache ~at:src ~dst = None);
  (* the verifier treats a packet stranded at [src] as unrecoverable *)
  let inst =
    Kar_verify.Verifier.prepare g
      ~plan:(Kar.Controller.route g ~src:near ~dst ~protection:[])
      ~policy:Kar.Policy.Not_input_port ~src:near ~dst ()
  in
  Alcotest.(check int) "verifier: src unreachable" (-1)
    inst.Kar_verify.Verifier.plan_of_edge.(src);
  let server = Kar_service.Server.create ~graph:g () in
  let report =
    Kar_service.Server.run server
      [| { Kar_service.Workload.seq = 0; arrival = 0.0; src; dst;
           level = Kar.Controller.Unprotected;
           policy = Kar.Policy.Not_input_port } |]
  in
  Alcotest.(check int) "server answers unroutable" 1
    report.Kar_service.Server.unroutable

(* --- Walk vs Markov agreement --- *)

let walk_matches_markov sc level policy fidx =
  let g = sc.Nets.graph in
  let plan = Kar.Controller.scenario_plan sc level in
  let failed =
    match fidx with
    | Some i -> [ (List.nth sc.Nets.failures i).Nets.link ]
    | None -> []
  in
  let exact =
    Kar.Markov.analyze g ~plan ~policy ~failed ~src:sc.Nets.ingress
      ~dst:sc.Nets.egress
  in
  let mc =
    Kar.Walk.run g ~plan ~policy ~failed ~src:sc.Nets.ingress ~dst:sc.Nets.egress
      ~trials:30_000 ~seed:13
  in
  Alcotest.(check (float 0.015))
    "delivery probability" exact.Kar.Markov.p_delivered mc.Kar.Walk.p_delivery;
  if exact.Kar.Markov.p_delivered > 0.2 && Float.is_finite exact.Kar.Markov.expected_hops_delivered
  then
    Alcotest.(check bool) "hops within 10%" true
      (Float.abs (exact.Kar.Markov.expected_hops_delivered -. mc.Kar.Walk.mean_hops)
       /. exact.Kar.Markov.expected_hops_delivered
       < 0.1)

let test_walk_markov_nip () =
  walk_matches_markov Nets.net15 Kar.Controller.Partial Kar.Policy.Not_input_port (Some 0);
  walk_matches_markov Nets.net15 Kar.Controller.Full Kar.Policy.Not_input_port (Some 2);
  walk_matches_markov Nets.rnp28 Kar.Controller.Partial Kar.Policy.Not_input_port (Some 1)

let test_walk_markov_avp () =
  walk_matches_markov Nets.net15 Kar.Controller.Partial Kar.Policy.Any_valid_port (Some 1)

let test_markov_healthy_deterministic () =
  (* without failures the chain is the deterministic path: P(del)=1, hops =
     path length *)
  List.iter
    (fun (sc, expected_hops) ->
      let plan = Kar.Controller.scenario_plan sc Kar.Controller.Partial in
      let a =
        Kar.Markov.analyze sc.Nets.graph ~plan ~policy:Kar.Policy.Not_input_port
          ~failed:[] ~src:sc.Nets.ingress ~dst:sc.Nets.egress
      in
      Alcotest.(check (float 1e-9)) "P(del)=1" 1.0 a.Kar.Markov.p_delivered;
      Alcotest.(check (float 1e-6)) "hops" expected_hops
        a.Kar.Markov.expected_hops_delivered)
    [ (Nets.fig1_six, 3.0); (Nets.net15, 4.0); (Nets.rnp28, 4.0);
      (Nets.rnp_fig8, 6.0) ]

let test_markov_fig8_geometric () =
  (* the fig8 loop: 1/2 escape per visit via SW109 (4 hops/loop) means
     E[hops] = 6 + 4 * E[loops] = 6 + 4 = 10 *)
  let sc = Nets.rnp_fig8 in
  let plan = Kar.Controller.scenario_plan sc Kar.Controller.Partial in
  let a =
    Kar.Markov.analyze sc.Nets.graph ~plan ~policy:Kar.Policy.Not_input_port
      ~failed:[ (List.hd sc.Nets.failures).Nets.link ]
      ~src:sc.Nets.ingress ~dst:sc.Nets.egress
  in
  Alcotest.(check (float 1e-6)) "P(del)=1" 1.0 a.Kar.Markov.p_delivered;
  Alcotest.(check (float 0.01)) "E[hops]=10" 10.0 a.Kar.Markov.expected_hops_delivered

let test_markov_no_deflection_drops () =
  let sc = Nets.net15 in
  let plan = Kar.Controller.scenario_plan sc Kar.Controller.Full in
  let a =
    Kar.Markov.analyze sc.Nets.graph ~plan ~policy:Kar.Policy.No_deflection
      ~failed:[ (List.nth sc.Nets.failures 1).Nets.link ]
      ~src:sc.Nets.ingress ~dst:sc.Nets.egress
  in
  Alcotest.(check (float 1e-9)) "everything drops" 1.0 a.Kar.Markov.p_dropped

let test_markov_disconnected_source () =
  (* fail the ingress uplink: nothing can even enter the core *)
  let sc = Nets.fig1_six in
  let g = sc.Nets.graph in
  let plan = Kar.Controller.scenario_plan sc Kar.Controller.Partial in
  let uplink = (Graph.link_at g sc.Nets.ingress 0).Graph.id in
  let a =
    Kar.Markov.analyze g ~plan ~policy:Kar.Policy.Not_input_port
      ~failed:[ uplink ] ~src:sc.Nets.ingress ~dst:sc.Nets.egress
  in
  Alcotest.(check (float 1e-9)) "all dropped" 1.0 a.Kar.Markov.p_dropped;
  (* the Monte-Carlo walker agrees *)
  let mc =
    Kar.Walk.run g ~plan ~policy:Kar.Policy.Not_input_port ~failed:[ uplink ]
      ~src:sc.Nets.ingress ~dst:sc.Nets.egress ~trials:100 ~seed:1
  in
  Alcotest.(check int) "walker drops everything" 100 mc.Kar.Walk.dropped

let test_markov_rejects_core_source () =
  let sc = Nets.fig1_six in
  let g = sc.Nets.graph in
  let plan = Kar.Controller.scenario_plan sc Kar.Controller.Partial in
  match
    Kar.Markov.analyze g ~plan ~policy:Kar.Policy.Not_input_port ~failed:[]
      ~src:(Graph.node_of_label g 7) ~dst:sc.Nets.egress
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "core source accepted"

let test_markov_solver () =
  (* 2x2 system: x + y = 3, x - y = 1 *)
  let x = Kar.Markov.solve [| [| 1.0; 1.0 |]; [| 1.0; -1.0 |] |] [| 3.0; 1.0 |] in
  Alcotest.(check (float 1e-9)) "x" 2.0 x.(0);
  Alcotest.(check (float 1e-9)) "y" 1.0 x.(1);
  (* singular *)
  match Kar.Markov.solve [| [| 1.0; 1.0 |]; [| 2.0; 2.0 |] |] [| 1.0; 2.0 |] with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected singular failure"

let test_optimizer_improves_or_equals () =
  let sc = Nets.net15 in
  let g = sc.Nets.graph in
  let failures = List.map (fun fc -> fc.Nets.link) sc.Nets.failures in
  let base = Kar.Controller.scenario_plan sc Kar.Controller.Unprotected in
  let score plan =
    Kar.Optimizer.score g ~plan ~policy:Kar.Policy.Not_input_port ~failures
      ~src:sc.Nets.ingress ~dst:sc.Nets.egress
  in
  let before = score base in
  let r =
    Kar.Optimizer.optimize g ~plan:base ~policy:Kar.Policy.Not_input_port
      ~failures ~src:sc.Nets.ingress ~dst:sc.Nets.egress ~bits:64
  in
  Alcotest.(check bool) "never worse" true (r.Kar.Optimizer.score >= before);
  Alcotest.(check bool) "budget respected" true
    (r.Kar.Optimizer.plan.Kar.Route.bit_length <= 64);
  (* every recorded step strictly improved the objective *)
  List.iter
    (fun s ->
      Alcotest.(check bool) "monotone step" true
        (s.Kar.Optimizer.score_after > s.Kar.Optimizer.score_before))
    r.Kar.Optimizer.steps;
  (* final score equals re-evaluating the final plan *)
  Alcotest.(check (float 1e-9)) "score consistent" r.Kar.Optimizer.score
    (score r.Kar.Optimizer.plan);
  (* with a generous budget it should reach certain delivery on net15 *)
  Alcotest.(check (float 1e-6)) "perfect worst-case delivery" 1.0
    r.Kar.Optimizer.score

let test_optimizer_tiny_budget_noop () =
  (* a budget below the unprotected size leaves the plan untouched *)
  let sc = Nets.net15 in
  let g = sc.Nets.graph in
  let base = Kar.Controller.scenario_plan sc Kar.Controller.Unprotected in
  let r =
    Kar.Optimizer.optimize g ~plan:base ~policy:Kar.Policy.Not_input_port
      ~failures:[ (List.hd sc.Nets.failures).Nets.link ] ~src:sc.Nets.ingress
      ~dst:sc.Nets.egress ~bits:base.Kar.Route.bit_length
  in
  Alcotest.(check int) "no steps" 0 (List.length r.Kar.Optimizer.steps);
  Alcotest.(check bool) "same plan" true
    (Bignum.Z.equal r.Kar.Optimizer.plan.Kar.Route.route_id base.Kar.Route.route_id)

let test_walk_ttl () =
  (* with protection absent and HP, walks can die of TTL *)
  let sc = Nets.net15 in
  let plan = Kar.Controller.scenario_plan sc Kar.Controller.Unprotected in
  let r =
    Kar.Walk.run sc.Nets.graph ~plan ~policy:Kar.Policy.Hot_potato
      ~failed:[ (List.nth sc.Nets.failures 1).Nets.link ]
      ~src:sc.Nets.ingress ~dst:sc.Nets.egress ~trials:2000 ~seed:3
  in
  Alcotest.(check int) "conservation" r.Kar.Walk.trials
    (r.Kar.Walk.delivered + r.Kar.Walk.stranded + r.Kar.Walk.dropped
   + r.Kar.Walk.ttl_exceeded);
  Alcotest.(check bool) "some walks die of ttl" true (r.Kar.Walk.ttl_exceeded > 0)

let () =
  Alcotest.run "kar"
    [
      ( "policy",
        [
          Alcotest.test_case "computed port (paper values)" `Quick test_computed_port;
          Alcotest.test_case "none forwards valid" `Quick test_none_forwards_valid;
          Alcotest.test_case "none drops invalid" `Quick test_none_drops_invalid_port;
          Alcotest.test_case "none drops down" `Quick test_none_drops_down_port;
          Alcotest.test_case "avp may bounce back" `Quick test_avp_uses_computed_even_if_input;
          Alcotest.test_case "nip never uses input" `Quick test_nip_never_uses_input;
          Alcotest.test_case "nip random excludes input+down" `Quick
            test_nip_random_excludes_input_and_down;
          Alcotest.test_case "nip degree-one dead end" `Quick test_nip_degree_one_returns;
          Alcotest.test_case "hp random after deflection" `Quick
            test_hp_random_after_first_deflection;
          Alcotest.test_case "hp follows modulo until deflected" `Quick
            test_hp_not_deflected_follows_modulo;
          Alcotest.test_case "all drop when isolated" `Quick test_all_drop_when_everything_down;
          Alcotest.test_case "policy names roundtrip" `Quick test_policy_string_roundtrip;
          Alcotest.test_case "deflection uniformity" `Quick test_deflection_uniformity;
          Alcotest.test_case "choose = section 2.1 reference (deg <= 6)" `Quick
            test_choose_matches_reference;
          prop_forward_invariants;
        ] );
      ( "fastpath",
        [
          Alcotest.test_case "residue cache" `Quick test_residue_cache;
          Alcotest.test_case "steady-state zero allocation" `Quick
            test_forward_zero_alloc;
          Alcotest.test_case "a 5-limb cache miss allocates nothing" `Quick
            test_forward_miss_zero_alloc;
        ] );
      ( "route",
        [
          Alcotest.test_case "fig1 route IDs" `Quick test_route_fig1;
          Alcotest.test_case "table 1 bit lengths" `Quick test_route_table1_bits;
          Alcotest.test_case "error paths" `Quick test_route_errors;
          Alcotest.test_case "verify catches corruption" `Quick test_route_verify_catches_mismatch;
          Alcotest.test_case "next_hop matches residues" `Quick test_next_hop_matches_residues;
          prop_protect_skipping_matches_fold;
        ] );
      ( "protection",
        [
          Alcotest.test_case "tree hops reach destination" `Quick test_tree_hops_reach_dest;
          Alcotest.test_case "off-path member selection" `Quick test_off_path_members_ordering;
          prop_off_path_members_reference;
          Alcotest.test_case "budget selection is monotone" `Quick test_budget_monotone;
          Alcotest.test_case "coverage (paper narrative values)" `Quick test_coverage_values;
        ] );
      ( "ids",
        [
          Alcotest.test_case "primes" `Quick test_primes;
          prop_assign_valid;
          Alcotest.test_case "edges preserved" `Quick test_assign_preserves_edges;
          Alcotest.test_case "mean route bits sane" `Quick test_mean_route_bits_sane;
          prop_coprime_plan_residues;
        ] );
      ( "controller",
        [
          Alcotest.test_case "all scenario plans verify" `Quick test_scenario_plans_verify;
          Alcotest.test_case "reverse plan edge-disjoint" `Quick test_reverse_plan_edge_disjoint;
          Alcotest.test_case "re-encode cache" `Quick test_reencode_cache;
          Alcotest.test_case "re-encode at destination" `Quick
            test_reencode_at_destination;
          Alcotest.test_case "re-encode unreachable" `Quick test_reencode_unreachable;
          Alcotest.test_case "route follows shortest path" `Quick
            test_controller_route_follows_shortest;
          Alcotest.test_case "route through a large switch ID" `Quick
            test_controller_route_large_switch_id;
          Alcotest.test_case "disjoint plans" `Quick test_disjoint_plans;
          Alcotest.test_case "disjoint plans survive each other" `Quick
            test_disjoint_plans_survive_each_other;
          Alcotest.test_case "protected route = per-hop fold" `Quick
            test_protected_route_matches_fold;
          Alcotest.test_case "a plan's minor words stay bounded (gen:32)" `Quick
            test_plan_minor_words;
          Alcotest.test_case "protected route skips advisory-label hops" `Quick
            test_protected_route_advisory_labels;
        ] );
      ( "planner",
        [
          prop_planner_matches_reference;
          Alcotest.test_case "two domains fill the trees (gen:32)" `Quick
            test_concurrent_tree_fill;
          Alcotest.test_case "plan digests match the fixture" `Quick
            test_plan_digests_match_fixture;
        ] );
      ( "budget",
        [
          Alcotest.test_case "protected plans fit the header (gen:128)" `Quick
            test_protected_route_fits_header;
          Alcotest.test_case "a path wider than the header is an error" `Quick
            test_path_wider_than_header;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "walk = markov (nip)" `Slow test_walk_markov_nip;
          Alcotest.test_case "walk = markov (avp)" `Slow test_walk_markov_avp;
          Alcotest.test_case "healthy = deterministic path" `Quick
            test_markov_healthy_deterministic;
          Alcotest.test_case "fig8 geometric loop" `Quick test_markov_fig8_geometric;
          Alcotest.test_case "no-deflection drops all" `Quick test_markov_no_deflection_drops;
          Alcotest.test_case "linear solver" `Quick test_markov_solver;
          Alcotest.test_case "disconnected source" `Quick test_markov_disconnected_source;
          Alcotest.test_case "core source rejected" `Quick test_markov_rejects_core_source;
          Alcotest.test_case "walk ttl + conservation" `Quick test_walk_ttl;
        ] );
      ( "optimizer",
        [
          Alcotest.test_case "improves monotonically" `Slow test_optimizer_improves_or_equals;
          Alcotest.test_case "tiny budget is a no-op" `Quick test_optimizer_tiny_budget_noop;
        ] );
    ]

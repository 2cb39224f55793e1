module Z = Bignum.Z
module Graph = Topo.Graph

type plan = {
  route_id : Z.t;
  modulus : Z.t;
  residues : Rns.residue list;
  core_path : Graph.node list;
  protection : (int * int) list;
  bit_length : int;
}

type error =
  | Rns_error of Rns.error
  | Not_adjacent of int * int
  | Not_core of int
  | Port_not_encodable of int * int
  | Duplicate_switch of int
  | Exceeds_header of int

let pp_error ppf = function
  | Rns_error e -> Rns.pp_error ppf e
  | Not_adjacent (a, b) -> Format.fprintf ppf "SW%d and SW%d are not adjacent" a b
  | Not_core l -> Format.fprintf ppf "node %d is not a core switch" l
  | Port_not_encodable (s, p) ->
    Format.fprintf ppf "port %d of SW%d is not encodable (port >= switch ID)" p s
  | Duplicate_switch s ->
    Format.fprintf ppf
      "SW%d already carries a residue; a switch can appear only once per route ID" s
  | Exceeds_header bits ->
    Format.fprintf ppf
      "the path's route ID needs %d bits; the header carries at most %d" bits
      Wire.Header.max_route_bits

let ( let* ) = Result.bind

(* Build a residue for switch node [v] exiting through [port]. *)
let residue g v port =
  let id = Graph.label g v in
  if not (Graph.is_core g v) then Error (Not_core id)
  else if port >= id then Error (Port_not_encodable (id, port))
  else Ok { Rns.modulus = id; value = port }

let encode_plan ~core_path ~protection residues =
  match Rns.encode residues with
  | Error e -> Error (Rns_error e)
  | Ok (route_id, modulus) ->
    Ok
      {
        route_id;
        modulus;
        residues;
        core_path;
        protection;
        bit_length = Rns.bit_length_bound modulus;
      }

let check_no_duplicates residues =
  let rec go seen = function
    | [] -> Ok ()
    | r :: rest ->
      if List.mem r.Rns.modulus seen then Error (Duplicate_switch r.Rns.modulus)
      else go (r.Rns.modulus :: seen) rest
  in
  go [] residues

let of_core_path g path ~egress_port =
  let rec residues acc = function
    | [] -> Ok (List.rev acc)
    | [ last ] ->
      let* r = residue g last egress_port in
      Ok (List.rev (r :: acc))
    | a :: (b :: _ as rest) ->
      (match Graph.port_towards g a b with
       | None -> Error (Not_adjacent (Graph.label g a, Graph.label g b))
       | Some p ->
         let* r = residue g a p in
         residues (r :: acc) rest)
  in
  match path with
  | [] -> Error (Rns_error Rns.Empty_system)
  | _ ->
    let* rs = residues [] path in
    let* () = check_no_duplicates rs in
    let* plan = encode_plan ~core_path:path ~protection:[] rs in
    if plan.bit_length > Wire.Header.max_route_bits then
      Error (Exceeds_header plan.bit_length)
    else Ok plan

let of_labels g labels ~egress_label =
  let nodes = List.map (Graph.node_of_label g) labels in
  match List.rev nodes with
  | [] -> Error (Rns_error Rns.Empty_system)
  | last :: _ ->
    let egress = Graph.node_of_label g egress_label in
    (match Graph.port_towards g last egress with
     | None -> Error (Not_adjacent (Graph.label g last, egress_label))
     | Some p -> of_core_path g nodes ~egress_port:p)

let raise_error e = invalid_arg (Format.asprintf "Route: %a" pp_error e)

(* The residue a directed protection hop adds: the switch's port toward
   its next hop. *)
let hop_residue g (s_label, next_label) =
  let s = Graph.node_of_label g s_label in
  match Graph.port_towards g s (Graph.node_of_label g next_label) with
  | None -> Error (Not_adjacent (s_label, next_label))
  | Some p -> residue g s p

let protect g plan hops =
  let rec build acc = function
    | [] -> Ok (List.rev acc)
    | hop :: rest ->
      let* r = hop_residue g hop in
      build (r :: acc) rest
  in
  let* extra = build [] hops in
  let residues = plan.residues @ extra in
  let* () = check_no_duplicates residues in
  encode_plan ~core_path:plan.core_path ~protection:(plan.protection @ hops) residues

(* [protect] applied one hop at a time, continuing the plan's own CRT
   state in an accumulator: a hop is kept when its residue is valid, its
   switch ID is > 1 and the accumulator folds it in, i.e. finds it
   coprime with the plan's modulus (so with every switch already in the
   plan, a repeated switch included), which is everything [protect]
   checks, and finds the grown modulus's Eq. 9 bound within [max_bits].
   The route ID and modulus are built once, at the end. *)
let protect_skipping ?(max_bits = Wire.Header.max_route_bits) g plan hops =
  let acc = Rns.Acc.create plan.route_id plan.modulus in
  let rec select kept extra = function
    | [] -> (List.rev kept, List.rev extra)
    | hop :: rest ->
      (match hop_residue g hop with
       | Ok r when r.Rns.modulus > 1 && Rns.Acc.add ~max_bits acc r ->
         select (hop :: kept) (r :: extra) rest
       | Ok _ | Error _ -> select kept extra rest)
  in
  match select [] [] hops with
  | [], _ -> plan
  | kept, extra ->
    {
      route_id = Rns.Acc.route_id acc;
      modulus = Rns.Acc.modulus acc;
      residues = plan.residues @ extra;
      core_path = plan.core_path;
      protection = plan.protection @ kept;
      bit_length = Rns.Acc.bits acc;
    }

let of_labels_exn g labels ~egress_label =
  match of_labels g labels ~egress_label with
  | Ok p -> p
  | Error e -> raise_error e

let protect_exn g plan hops =
  match protect g plan hops with
  | Ok p -> p
  | Error e -> raise_error e

let residue_at plan switch_id =
  List.find_opt (fun r -> r.Rns.modulus = switch_id) plan.residues

let is_protected plan switch_id =
  List.exists (fun r -> r.Rns.modulus = switch_id) plan.residues

(* The per-switch reader Karnet installs: the residue is looked up once
   here, so a packet costs one limb comparison against the plan's route
   ID.  The cached port only answers for that route ID; a packet
   re-encoded at an edge (fresh route ID) misses and takes the remainder
   fold, so the cache needs no invalidation beyond plan re-encode. *)
let cached_port_flat plan ~switch_id =
  match residue_at plan switch_id with
  | None -> Policy.computed_port_flat ~switch_id
  | Some { Rns.value = port; _ } ->
    let route_id = plan.route_id in
    fun buf ->
      if Wire.Flat.route_id_equal buf route_id then port
      else Policy.computed_port_flat ~switch_id buf

let port_at plan ~switch_id =
  match residue_at plan switch_id with
  | Some r -> r.Rns.value
  | None -> Policy.computed_port ~switch_id ~route_id:plan.route_id

let verify plan =
  List.filter_map
    (fun r ->
      let got = Policy.computed_port ~switch_id:r.Rns.modulus ~route_id:plan.route_id in
      if got = r.Rns.value then None else Some (r.Rns.modulus, r.Rns.value, got))
    plan.residues

module Graph = Topo.Graph

type t =
  | No_deflection
  | Hot_potato
  | Any_valid_port
  | Not_input_port

let all = [ No_deflection; Hot_potato; Any_valid_port; Not_input_port ]

let to_string = function
  | No_deflection -> "none"
  | Hot_potato -> "hp"
  | Any_valid_port -> "avp"
  | Not_input_port -> "nip"

let of_string = function
  | "none" -> Some No_deflection
  | "hp" -> Some Hot_potato
  | "avp" -> Some Any_valid_port
  | "nip" -> Some Not_input_port
  | _ -> None

let ttl = 128

let computed_port ~switch_id ~route_id = Bignum.Z.rem_int route_id switch_id

(* Same kernel over a flat packet image: the remainder fold runs directly on
   the buffer's limb words, no Z.t in sight. *)
let computed_port_flat ~switch_id buf = Wire.Flat.rem_route_id buf switch_id

(* The decision is one immediate int, so the data plane never touches the
   minor heap: [lnot p] (negative) takes port [p], a positive value is the
   candidate mask of a uniform draw, 0 is stuck.  Every port index is below
   [max_degree], so a mask never reaches the sign bit. *)
let choose policy ~computed:c ~in_port ~deflected ~degree ~live =
  let usable = c >= 0 && c < degree && live land (1 lsl c) <> 0 in
  match policy with
  | No_deflection -> if usable then lnot c else 0
  | Hot_potato -> if usable && not deflected then lnot c else live
  | Any_valid_port -> if usable then lnot c else live
  | Not_input_port ->
    if usable && c <> in_port then lnot c
    else begin
      let others = if in_port >= 0 then live land lnot (1 lsl in_port) else live in
      (* Degree-one dead end: the paper's Algorithm 1 would spin forever;
         with no other live port, [live] is either empty or exactly the
         input port, which sends the packet back where it came from. *)
      if others <> 0 then others else live
    end

let rec popcount m = if m = 0 then 0 else 1 + popcount (m land (m - 1))

(* Port of the [k]-th set bit of [m] at or above port [p]. *)
let rec nth_port m p k =
  if m land (1 lsl p) = 0 then nth_port m (p + 1) k
  else if k = 0 then p
  else nth_port m (p + 1) (k - 1)

(* [Prng.int _ 1] consumes nothing, so a singleton mask makes no draw. *)
let pick rng m = nth_port m 0 (Util.Prng.int rng (popcount m))

let max_degree = Sys.int_size - 1

let check_degree ~who g v =
  let degree = Graph.degree g v in
  if degree > max_degree then
    invalid_arg
      (Printf.sprintf
         "%s: SW%d has %d ports; a live-port mask holds at most %d" who
         (Graph.label g v) degree max_degree)

let mask_of_failures g ~node ~failed =
  check_degree ~who:"Policy.mask_of_failures" g node;
  let rec go p acc =
    if p < 0 then acc
    else
      go (p - 1)
        (if failed (Graph.link_at g node p).Graph.id then acc
         else acc lor (1 lsl p))
  in
  go (Graph.degree g node - 1) 0

type link_ref = Id of int | Between of int * int

type t =
  | Flap of { links : int; period : float; duty : float; seed : int }
  | Regional of { groups : int; mtbf : float; mttr : float; seed : int }
  | Adversarial of {
      k : int;
      period : float;
      hold : float;
      level : Kar.Controller.level;
    }
  | Events of (float * Event.action * link_ref) list

let ( let* ) = Result.bind

let split_fields s =
  if String.trim s = "" then [] else String.split_on_char ',' s

let parse_kv field =
  match String.index_opt field '=' with
  | Some i ->
    Ok
      ( String.sub field 0 i,
        String.sub field (i + 1) (String.length field - i - 1) )
  | None -> Error (Printf.sprintf "field %S is not key=value" field)

let parse_int key v =
  match int_of_string_opt v with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "%s: bad integer %S" key v)

let parse_float key v =
  match float_of_string_opt v with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "%s: bad number %S" key v)

(* fold key=value fields over a record-updating step function *)
let fold_kv fields init step =
  List.fold_left
    (fun acc field ->
      let* acc = acc in
      let* k, v = parse_kv field in
      step acc k v)
    (Ok init) fields

let check cond msg v = if cond then Ok v else Error msg

let parse_flap body =
  let* f =
    fold_kv (split_fields body)
      (4, 0.5, 0.4, 7)
      (fun (links, period, duty, seed) k v ->
        match k with
        | "links" -> let* n = parse_int k v in Ok (n, period, duty, seed)
        | "period" -> let* x = parse_float k v in Ok (links, x, duty, seed)
        | "duty" -> let* x = parse_float k v in Ok (links, period, x, seed)
        | "seed" -> let* n = parse_int k v in Ok (links, period, duty, n)
        | _ -> Error (Printf.sprintf "flap: unknown key %S" k))
  in
  let links, period, duty, seed = f in
  let* () = check (links > 0) "flap: links must be positive" () in
  let* () = check (period > 0.0) "flap: period must be positive" () in
  let* () = check (duty > 0.0 && duty < 1.0) "flap: duty must be in (0,1)" () in
  Ok (Flap { links; period; duty; seed })

let parse_regional body =
  let* f =
    fold_kv (split_fields body)
      (3, 0.6, 0.25, 7)
      (fun (groups, mtbf, mttr, seed) k v ->
        match k with
        | "groups" -> let* n = parse_int k v in Ok (n, mtbf, mttr, seed)
        | "mtbf" -> let* x = parse_float k v in Ok (groups, x, mttr, seed)
        | "mttr" -> let* x = parse_float k v in Ok (groups, mtbf, x, seed)
        | "seed" -> let* n = parse_int k v in Ok (groups, mtbf, mttr, n)
        | _ -> Error (Printf.sprintf "regional: unknown key %S" k))
  in
  let groups, mtbf, mttr, seed = f in
  let* () = check (groups > 0) "regional: groups must be positive" () in
  let* () = check (mtbf > 0.0) "regional: mtbf must be positive" () in
  let* () = check (mttr > 0.0) "regional: mttr must be positive" () in
  Ok (Regional { groups; mtbf; mttr; seed })

let parse_adversarial body =
  let* f =
    fold_kv (split_fields body)
      (2, 0.5, 0.45, Kar.Controller.Full)
      (fun (k_, period, hold, level) key v ->
        match key with
        | "k" -> let* n = parse_int key v in Ok (n, period, hold, level)
        | "period" -> let* x = parse_float key v in Ok (k_, x, hold, level)
        | "hold" -> let* x = parse_float key v in Ok (k_, period, x, level)
        | "level" ->
          (match Kar.Controller.level_of_string v with
           | Some l -> Ok (k_, period, hold, l)
           | None -> Error (Printf.sprintf "level: unknown %S" v))
        | _ -> Error (Printf.sprintf "adversarial: unknown key %S" key))
  in
  let k, period, hold, level = f in
  let* () = check (k > 0) "adversarial: k must be positive" () in
  let* () = check (period > 0.0) "adversarial: period must be positive" () in
  let* () = check (hold > 0.0) "adversarial: hold must be positive" () in
  Ok (Adversarial { k; period; hold; level })

(* one explicit event: fail@0.5=7-13 | repair@0.8=7-13 | fail@1.2=#12 *)
let parse_event field =
  let* action, rest =
    match String.index_opt field '@' with
    | None -> Error (Printf.sprintf "events: %S is not action@time=link" field)
    | Some i ->
      let action = String.sub field 0 i
      and rest = String.sub field (i + 1) (String.length field - i - 1) in
      (match action with
       | "fail" -> Ok (Event.Fail, rest)
       | "repair" -> Ok (Event.Repair, rest)
       | _ -> Error (Printf.sprintf "events: unknown action %S" action))
  in
  let* at, link = parse_kv rest in
  let* at = parse_float "time" at in
  let* () = check (at >= 0.0) "events: time must be non-negative" () in
  let* link =
    if String.length link > 0 && link.[0] = '#' then
      let* id =
        parse_int "link" (String.sub link 1 (String.length link - 1))
      in
      Ok (Id id)
    else
      match String.split_on_char '-' link with
      | [ a; b ] ->
        let* a = parse_int "link endpoint" a in
        let* b = parse_int "link endpoint" b in
        Ok (Between (a, b))
      | _ -> Error (Printf.sprintf "events: bad link %S (A-B or #ID)" link)
  in
  Ok (at, action, link)

let parse_events body =
  let* evs =
    List.fold_left
      (fun acc field ->
        let* acc = acc in
        let* e = parse_event field in
        Ok (e :: acc))
      (Ok []) (split_fields body)
  in
  match evs with
  | [] -> Error "events: empty event list"
  | evs -> Ok (Events (List.rev evs))

let parse s =
  let model, body =
    match String.index_opt s ':' with
    | Some i ->
      (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
    | None -> (s, "")
  in
  match model with
  | "flap" -> parse_flap body
  | "regional" -> parse_regional body
  | "adversarial" -> parse_adversarial body
  | "events" -> parse_events body
  | _ ->
    Error
      (Printf.sprintf
         "unknown scenario model %S (flap|regional|adversarial|events)" model)

(* %g where it reads back exactly, as every value of up to six significant
   digits does, else the 17 significant digits that always do *)
let float_to_string x =
  let s = Printf.sprintf "%g" x in
  if float_of_string s = x then s else Printf.sprintf "%.17g" x

let to_string = function
  | Flap { links; period; duty; seed } ->
    Printf.sprintf "flap:links=%d,period=%s,duty=%s,seed=%d" links
      (float_to_string period) (float_to_string duty) seed
  | Regional { groups; mtbf; mttr; seed } ->
    Printf.sprintf "regional:groups=%d,mtbf=%s,mttr=%s,seed=%d" groups
      (float_to_string mtbf) (float_to_string mttr) seed
  | Adversarial { k; period; hold; level } ->
    Printf.sprintf "adversarial:k=%d,period=%s,hold=%s,level=%s" k
      (float_to_string period) (float_to_string hold)
      (Kar.Controller.level_to_string level)
  | Events evs ->
    "events:"
    ^ String.concat ","
        (List.map
           (fun (at, action, link) ->
             Printf.sprintf "%s@%s=%s"
               (Event.action_to_string action)
               (float_to_string at)
               (match link with
                | Id id -> Printf.sprintf "#%d" id
                | Between (a, b) -> Printf.sprintf "%d-%d" a b))
           evs)

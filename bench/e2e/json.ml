(* The little JSON the benchmark reads and writes: result lines, the
   BENCHMARK.json metric lists, saved runs and the expected values. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Integral values print as integers; the rest with every digit (%.17g
   round-trips). *)
let number v =
  if not (Float.is_finite v) then invalid_arg "Json.number: not finite"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num v -> number v
  | Str s -> "\"" ^ escape s ^ "\""
  | Arr l -> "[" ^ String.concat ", " (List.map to_string l) ^ "]"
  | Obj kvs ->
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> "\"" ^ escape k ^ "\": " ^ to_string v) kvs)
    ^ "}"

exception Parse_error of string

let parse s =
  let n = String.length s in
  let i = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !i)) in
  let rec ws () =
    if !i < n then
      match s.[!i] with
      | ' ' | '\t' | '\n' | '\r' ->
        incr i;
        ws ()
      | _ -> ()
  in
  let expect c =
    ws ();
    if !i < n && s.[!i] = c then incr i
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    if !i + String.length word <= n && String.sub s !i (String.length word) = word
    then begin
      i := !i + String.length word;
      v
    end
    else fail "bad literal"
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !i >= n then fail "unterminated string";
      let c = s.[!i] in
      incr i;
      match c with
      | '"' -> ()
      | '\\' ->
        if !i >= n then fail "bad escape";
        let e = s.[!i] in
        incr i;
        (match e with
         | 'n' -> Buffer.add_char b '\n'
         | 't' -> Buffer.add_char b '\t'
         | 'r' -> Buffer.add_char b '\r'
         | 'b' -> Buffer.add_char b '\b'
         | 'f' -> Buffer.add_char b '\012'
         | 'u' ->
           if !i + 4 > n then fail "bad \\u escape";
           let code = int_of_string ("0x" ^ String.sub s !i 4) in
           i := !i + 4;
           if code < 0x80 then Buffer.add_char b (Char.chr code)
           else Buffer.add_char b '?'
         | c -> Buffer.add_char b c);
        go ()
      | c ->
        Buffer.add_char b c;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let num () =
    let j = !i in
    while
      !i < n
      && match s.[!i] with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false
    do
      incr i
    done;
    match float_of_string_opt (String.sub s j (!i - j)) with
    | Some v -> Num v
    | None -> fail "bad number"
  in
  let rec value () =
    ws ();
    if !i >= n then fail "unexpected end";
    match s.[!i] with
    | '{' ->
      incr i;
      ws ();
      if !i < n && s.[!i] = '}' then begin
        incr i;
        Obj []
      end
      else
        let rec members acc =
          let k = str () in
          expect ':';
          let v = value () in
          ws ();
          if !i < n && s.[!i] = ',' then begin
            incr i;
            members ((k, v) :: acc)
          end
          else begin
            expect '}';
            Obj (List.rev ((k, v) :: acc))
          end
        in
        members []
    | '[' ->
      incr i;
      ws ();
      if !i < n && s.[!i] = ']' then begin
        incr i;
        Arr []
      end
      else
        let rec elements acc =
          let v = value () in
          ws ();
          if !i < n && s.[!i] = ',' then begin
            incr i;
            elements (v :: acc)
          end
          else begin
            expect ']';
            Arr (List.rev (v :: acc))
          end
        in
        elements []
    | '"' -> Str (str ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> num ()
  in
  let v = value () in
  ws ();
  if !i <> n then fail "trailing characters";
  v

let read_file path =
  let ic = open_in_bin path in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  parse s

let member k = function
  | Obj kvs -> ( match List.assoc_opt k kvs with Some v -> v | None -> Null)
  | _ -> Null

let to_float = function
  | Num v -> v
  | _ -> raise (Parse_error "expected a number")

let to_str = function
  | Str s -> s
  | _ -> raise (Parse_error "expected a string")

let to_list = function
  | Arr l -> l
  | _ -> raise (Parse_error "expected an array")

let to_assoc = function
  | Obj kvs -> kvs
  | _ -> raise (Parse_error "expected an object")

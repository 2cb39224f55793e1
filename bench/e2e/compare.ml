(* kar_bench compare A.json... -- B.json...

   Each file is a saved [kar_bench run --json] of one commit; A is the
   parent, B the change.  For every workload and end-to-end metric the
   table gives each side's median and quartiles and one verdict:

   - improved: at least ten runs pair up by position, B beats A in at
     least nine tenths of the pairs, ties counting for neither, and B's
     median is better than A's by more than A's quartile spread;
   - regressed: B's median is worse than A's by more than the bound;
   - unresolved: the run-to-run spread of either side is wider than the
     metric's bound and B does not beat every run of A with every run;
   - unchanged: otherwise.

   The failure ratio (failed / attempted) is compared exactly: any
   increase is a regression. *)

type side = { files : string list; runs : Json.t list }

let load files = { files; runs = List.map Json.read_file files }

(* The untraced result line of [workload] in each run that has one. *)
let results side ~workload =
  List.filter
    (( <> ) Json.Null)
    (List.map
       (fun run -> Json.member "untraced" (Json.member workload (Json.member "workloads" run)))
       side.runs)

let values side ~workload ~metric =
  List.filter_map
    (fun r ->
      match Json.member metric (Json.member "metrics" r) with
      | Json.Null -> None
      | m -> Some (Json.to_float (Json.member "value" m)))
    (results side ~workload)

let fail_ratios side ~workload =
  List.map
    (fun r ->
      let a = Json.to_float (Json.member "attempted" r) in
      if a = 0.0 then 0.0 else Json.to_float (Json.member "failed" r) /. a)
    (results side ~workload)

let rec zip a b = match (a, b) with x :: a, y :: b -> (x, y) :: zip a b | _ -> []

(* Fewer pairs than this cannot show a gain. *)
let min_pairs = 10

let verdict ~higher ~bound a b =
  (* [gain x y] > 0 when y reads better than x *)
  let gain x y = if higher then y -. x else x -. y in
  let qa1, ma, qa3 = Harness.quartiles a and qb1, mb, qb3 = Harness.quartiles b in
  let rel spread m = if m = 0.0 then 0.0 else spread /. Float.abs m in
  let paired = zip a b in
  let wins = List.length (List.filter (fun (x, y) -> gain x y > 0.0) paired) in
  let all_better = List.for_all (fun x -> List.for_all (fun y -> gain x y > 0.0) b) a in
  let spread = Float.max (rel (qa3 -. qa1) ma) (rel (qb3 -. qb1) mb) in
  let n = List.length paired in
  if n >= min_pairs && 10 * wins >= 9 * n && gain ma mb > qa3 -. qa1 then "improved"
  else if -.gain ma mb > bound *. Float.abs ma then "regressed"
  else if spread > bound && not all_better then "unresolved"
  else "unchanged"

let main args =
  let rec split acc = function
    | "--" :: rest -> (List.rev acc, rest)
    | x :: rest -> split (x :: acc) rest
    | [] -> (List.rev acc, [])
  in
  let a_files, rest = split [] args in
  let bench, b_files =
    match List.rev rest with
    | path :: "--bench" :: r -> (path, List.rev r)
    | _ -> ("BENCHMARK.json", rest)
  in
  if a_files = [] || b_files = [] then begin
    prerr_endline "usage: kar_bench compare A.json... -- B.json... [--bench BENCHMARK.json]";
    exit 2
  end;
  let a = load a_files and b = load b_files in
  let spec = Json.read_file bench in
  let metrics =
    List.map
      (fun m ->
        ( Json.to_str (Json.member "name" m),
          Json.to_str (Json.member "unit" m),
          Json.member "better" m = Json.Str "higher",
          Json.to_float (Json.member "bound" m) ))
      (Json.to_list (Json.member "end_to_end" spec))
  in
  let fmt3 xs =
    let q1, m, q3 = Harness.quartiles xs in
    Printf.sprintf "%.6g [%.6g, %.6g]" m q1 q3
  in
  let rows = ref [] and regressed = ref false in
  List.iter
    (fun (w : Workloads.t) ->
      List.iter
        (fun (name, unit, higher, bound) ->
          let va = values a ~workload:w.name ~metric:name
          and vb = values b ~workload:w.name ~metric:name in
          if va <> [] && vb <> [] then begin
            let v = verdict ~higher ~bound va vb in
            if v = "regressed" then regressed := true;
            rows :=
              [ w.name; name ^ " (" ^ unit ^ ")"; fmt3 va; fmt3 vb;
                Printf.sprintf "%.0f%%" (bound *. 100.0); v ]
              :: !rows
          end)
        metrics;
      let fa = fail_ratios a ~workload:w.name and fb = fail_ratios b ~workload:w.name in
      if fa <> [] && fb <> [] then begin
        let worse = Harness.median fb > Harness.median fa in
        if worse then regressed := true;
        rows :=
          [ w.name; "fail_ratio"; fmt3 fa; fmt3 fb; "exact";
            (if worse then "regressed" else "unchanged") ]
          :: !rows
      end)
    Workloads.all;
  Printf.printf "A: %s\nB: %s\n" (String.concat " " a.files) (String.concat " " b.files);
  print_string
    (Util.Texttab.render
       ~header:[ "workload"; "metric"; "A median [q1, q3]"; "B median [q1, q3]"; "bound"; "verdict" ]
       (List.rev !rows));
  if !regressed then exit 1

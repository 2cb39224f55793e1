type summary = {
  n : int;
  mean : float;
  stddev : float;
  ci95 : float;
  min : float;
  max : float;
}

let mean = function
  | [] -> invalid_arg "Stats.mean: empty"
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let stddev xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ ->
    let m = mean xs in
    let ss = List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs in
    sqrt (ss /. float_of_int (List.length xs - 1))

(* Two-sided 95% Student-t critical values; index = degrees of freedom. *)
let t_table =
  [| nan; 12.706; 4.303; 3.182; 2.776; 2.571; 2.447; 2.365; 2.306; 2.262;
     2.228; 2.201; 2.179; 2.160; 2.145; 2.131; 2.120; 2.110; 2.101; 2.093;
     2.086; 2.080; 2.074; 2.069; 2.064; 2.060; 2.056; 2.052; 2.048; 2.045;
     2.042 |]

let t_critical_95 df =
  if df <= 0 then invalid_arg "Stats.t_critical_95: df must be positive";
  if df < Array.length t_table then t_table.(df)
  else if df < 40 then 2.030
  else if df < 60 then 2.021
  else if df < 120 then 2.000
  else 1.960

let summarize xs =
  match xs with
  | [] -> invalid_arg "Stats.summarize: empty"
  | _ ->
    let n = List.length xs in
    let m = mean xs and sd = stddev xs in
    let ci95 = if n < 2 then 0.0 else t_critical_95 (n - 1) *. sd /. sqrt (float_of_int n) in
    {
      n;
      mean = m;
      stddev = sd;
      ci95;
      min = List.fold_left Stdlib.min infinity xs;
      max = List.fold_left Stdlib.max neg_infinity xs;
    }

let percentile_nearest_rank p xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile_nearest_rank: empty";
  if p <= 0.0 || p > 100.0 then
    invalid_arg "Stats.percentile_nearest_rank: p out of range";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  (* nearest rank: the ceil(p/100 * n)-th smallest sample (1-based) *)
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
  sorted.(Stdlib.max 0 (Stdlib.min (n - 1) (rank - 1)))

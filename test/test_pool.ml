(* Util.Pool (the domain pool behind every parallel sweep) and
   Prng.split_n (per-task stream derivation): structural properties of
   map, exception transparency, nested-map fallback, stream independence,
   and the end-to-end guarantee the experiment layer sells — rendered
   output is byte-identical at -j 1 and -j 8. *)

module Pool = Util.Pool
module Prng = Util.Prng

let with_pool ~jobs f =
  let p = Pool.create ~jobs in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

(* --- map structure --- *)

let test_empty () =
  with_pool ~jobs:4 (fun p ->
      Alcotest.(check (array int)) "empty" [||] (Pool.map p [||] ~f:(fun ~idx:_ x -> x)))

let test_single () =
  with_pool ~jobs:4 (fun p ->
      Alcotest.(check (array int)) "single" [| 14 |]
        (Pool.map p [| 7 |] ~f:(fun ~idx:_ x -> 2 * x)))

let test_jobs_exceed_tasks () =
  with_pool ~jobs:8 (fun p ->
      Alcotest.(check (array int)) "3 tasks on 8 jobs" [| 0; 11; 22 |]
        (Pool.map p [| 0; 1; 2 |] ~f:(fun ~idx:_ x -> 11 * x)))

let test_order_and_idx () =
  with_pool ~jobs:4 (fun p ->
      let n = 1000 in
      let input = Array.init n (fun i -> i) in
      let out = Pool.map p input ~f:(fun ~idx x -> idx + x) in
      Alcotest.(check (array int)) "results land at their input index"
        (Array.init n (fun i -> 2 * i))
        out)

let test_serial_pool_matches () =
  let input = Array.init 64 (fun i -> i * i) in
  let f ~idx x = (idx * 31) + x in
  let serial = with_pool ~jobs:1 (fun p -> Pool.map p input ~f) in
  let parallel = with_pool ~jobs:4 (fun p -> Pool.map p input ~f) in
  Alcotest.(check (array int)) "jobs=1 and jobs=4 agree" serial parallel

let test_many_maps_reuse () =
  (* the pool must survive many successive maps (workers re-park between
     jobs and pick up the next generation) *)
  with_pool ~jobs:4 (fun p ->
      for round = 1 to 100 do
        let out = Pool.map p (Array.make 17 round) ~f:(fun ~idx x -> idx + x) in
        Alcotest.(check int) "round result" (16 + round) out.(16)
      done)

(* --- exceptions --- *)

exception Boom of string

let test_exception_propagation () =
  with_pool ~jobs:4 (fun p ->
      let input = Array.init 32 (fun i -> i) in
      (match
         Pool.map p input ~f:(fun ~idx x ->
             if idx = 7 then raise (Boom "task 7") else x)
       with
      | _ -> Alcotest.fail "expected Task_failed"
      | exception Pool.Task_failed { index; exn } ->
        Alcotest.(check int) "failing index" 7 index;
        (match exn with
         | Boom m -> Alcotest.(check string) "original exn" "task 7" m
         | _ -> Alcotest.fail "exn not preserved"));
      (* the pool is still usable after a failed map *)
      let out = Pool.map p input ~f:(fun ~idx:_ x -> x + 1) in
      Alcotest.(check int) "pool reusable" 32 out.(31))

let test_exception_serial_consistent () =
  with_pool ~jobs:1 (fun p ->
      match Pool.map p [| 0; 1; 2 |] ~f:(fun ~idx x -> if idx = 2 then failwith "s" else x) with
      | _ -> Alcotest.fail "expected Task_failed"
      | exception Pool.Task_failed { index; exn = Failure _ } ->
        Alcotest.(check int) "serial index" 2 index
      | exception _ -> Alcotest.fail "wrong exception shape")

(* --- nested maps fall back to serial instead of deadlocking --- *)

let test_nested_map () =
  with_pool ~jobs:4 (fun p ->
      let out =
        Pool.map p (Array.init 8 (fun i -> i)) ~f:(fun ~idx:_ x ->
            let inner = Pool.map p (Array.make 5 x) ~f:(fun ~idx:_ y -> y + 1) in
            Array.fold_left ( + ) 0 inner)
      in
      Alcotest.(check (array int)) "nested maps compute"
        (Array.init 8 (fun i -> 5 * (i + 1)))
        out)

(* --- the shared pool --- *)

let test_shared_pool_resize () =
  Pool.set_jobs 3;
  Alcotest.(check int) "resized" 3 (Pool.current_jobs ());
  let out = Pool.run (Array.init 10 (fun i -> i)) ~f:(fun ~idx:_ x -> x * 3) in
  Alcotest.(check int) "shared run" 27 out.(9);
  Pool.set_jobs (Pool.default_jobs ())

(* --- Prng.split_n --- *)

let test_split_n_zero () =
  let g1 = Prng.of_int 99 and g2 = Prng.of_int 99 in
  Alcotest.(check int) "empty" 0 (Array.length (Prng.split_n g1 0));
  Alcotest.(check int64) "parent untouched" (Prng.next g2) (Prng.next g1)

let split_n_matches_splits =
  QCheck.Test.make ~count:50 ~name:"split_n g n consumes g like n splits"
    QCheck.(pair small_int (int_bound 16))
    (fun (seed, n) ->
      let g1 = Prng.of_int seed and g2 = Prng.of_int seed in
      let a = Prng.split_n g1 n in
      let b = Array.init n (fun _ -> Prng.split g2) |> Array.map Fun.id in
      (* sibling streams agree draw for draw... *)
      Array.iteri
        (fun i gi ->
          for _ = 1 to 3 do
            if Prng.next gi <> Prng.next b.(i) then
              QCheck.Test.fail_reportf "stream %d diverges" i
          done)
        a;
      (* ...and the parents are left in identical states *)
      Prng.next g1 = Prng.next g2)

let siblings_non_overlapping =
  QCheck.Test.make ~count:5 ~name:"sibling streams pairwise non-overlapping over 10k draws"
    QCheck.small_int
    (fun seed ->
      let streams = Prng.split_n (Prng.of_int seed) 4 in
      let seen : (int64, int) Hashtbl.t = Hashtbl.create 40_000 in
      Array.iteri
        (fun si g ->
          for _ = 1 to 10_000 do
            let v = Prng.next g in
            match Hashtbl.find_opt seen v with
            | Some sj when sj <> si ->
              QCheck.Test.fail_reportf "streams %d and %d share output %Ld" sj si v
            | _ -> Hashtbl.replace seen v si
          done)
        streams;
      true)

(* --- end-to-end determinism: experiment output vs -j --- *)

let render_at_jobs jobs render =
  Pool.set_jobs jobs;
  let out = render () in
  Pool.set_jobs (Pool.default_jobs ());
  out

let test_table2_deterministic () =
  let at1 = render_at_jobs 1 (fun () -> Experiments.Table2.to_string ()) in
  let at8 = render_at_jobs 8 (fun () -> Experiments.Table2.to_string ()) in
  Alcotest.(check string) "table2 byte-identical at -j 1 and -j 8" at1 at8

let test_fig5_deterministic () =
  let profile =
    { Experiments.Profile.quick with
      Experiments.Profile.iperf_reps = 2;
      iperf_duration_s = 1.5 }
  in
  let render () = Experiments.Fig5.to_string ~profile () in
  let at1 = render_at_jobs 1 render in
  let at8 = render_at_jobs 8 render in
  Alcotest.(check string) "fig5 byte-identical at -j 1 and -j 8" at1 at8

let () =
  Alcotest.run "pool"
    [
      ( "map",
        [
          Alcotest.test_case "empty input" `Quick test_empty;
          Alcotest.test_case "single element" `Quick test_single;
          Alcotest.test_case "jobs > tasks" `Quick test_jobs_exceed_tasks;
          Alcotest.test_case "order and idx" `Quick test_order_and_idx;
          Alcotest.test_case "jobs=1 matches jobs=4" `Quick test_serial_pool_matches;
          Alcotest.test_case "100 maps on one pool" `Quick test_many_maps_reuse;
        ] );
      ( "exceptions",
        [
          Alcotest.test_case "index + exn preserved, pool reusable" `Quick
            test_exception_propagation;
          Alcotest.test_case "serial path raises the same shape" `Quick
            test_exception_serial_consistent;
        ] );
      ( "nesting",
        [ Alcotest.test_case "nested map serial fallback" `Quick test_nested_map ] );
      ( "shared pool",
        [ Alcotest.test_case "set_jobs resizes" `Quick test_shared_pool_resize ] );
      ( "prng split_n",
        [
          Alcotest.test_case "n = 0" `Quick test_split_n_zero;
          QCheck_alcotest.to_alcotest split_n_matches_splits;
          QCheck_alcotest.to_alcotest siblings_non_overlapping;
        ] );
      ( "determinism vs -j",
        [
          Alcotest.test_case "table2 sweep" `Slow test_table2_deterministic;
          Alcotest.test_case "fig5 sweep" `Slow test_fig5_deterministic;
        ] );
    ]

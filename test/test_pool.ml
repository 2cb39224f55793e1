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

(* The stream is part of the output contract: every trace, fixture and
   benchmark value draws from it.  These are the first draws of six seeds,
   of one [split] child each and of three [split_n] children, generated
   once and pinned: a change to the generator must reproduce them. *)
let pin_draws g =
  let n1 = Prng.next g in
  let n2 = Prng.next g in
  let ints = List.map (Prng.int g) [ 1; 2; 3; 7; 1000; 1 lsl 30 ] in
  let f = Prng.float g in
  let e = Prng.exponential g ~mean:2.5 in
  Printf.sprintf "%Ld %Ld [%s] %h %h" n1 n2
    (String.concat ";" (List.map string_of_int ints))
    f e

let pinned_streams =
  [
    "1961750202426094747 6038094601263162090 [0;1;0;3;166;1018248457] 0x1.85a64dc00ab7bp-1 0x1.9dab46d3f3eacp+0";
    "1802094729522698543 2706755031236270849 [0;1;0;2;601;21870447] 0x1.5bdcb4e80e30fp-1 0x1.0907fa63dd44ap+2";
    "-4680584120681209617 -1813253978118170000 [0;1;2;2;515;664788477] 0x1.856728729189p-5 0x1.f5c48eb00cb89p+1";
    "1587992518603792468 -4725459343230660335 [0;1;2;1;77;651455367] 0x1.f566e5254717p-3 0x1.34e0b5c2920fep+0";
    "-8409855858410458948 -649034243745418697 [0;1;0;6;55;803599874] 0x1.9e350e54090fp-3 0x1.5ea5589970068p-2";
    "8195237237126968761 -4373826470845021568 [0;1;1;0;918;22433633] 0x1.35f9a89a299f1p-1 0x1.f80f74c1d5121p+0";
    "-4569942597986107876 -8065217542397473471 [0;0;2;6;275;606014533] 0x1.c29ea128ede6ep-1 0x1.1dec82a9d2bc6p-5";
    "8392167008161793992 -7002620092873590228 [0;0;2;2;41;90360347] 0x1.f0f7e528d0f44p-3 0x1.6cdfbdd4856fep-5";
    "304072623608796708 -7631132719830144098 [0;1;0;1;249;44437010] 0x1.7ceb346f60bccp-2 0x1.c6b58ec3d873dp-5";
    "-5356744909162538467 799914420203708345 [0;0;2;2;318;869680197] 0x1.d072923b90e2p-2 0x1.4466fee632a5p+0";
    "8346079845500723674 4601199455465548305 [0;0;2;1;873;95812331] 0x1.eb749d6e51bacp-1 0x1.b5f278d97c207p-3";
    "2885680000005702053 -3483053670495786828 [0;0;0;2;361;606300301] 0x1.449b61f3124a2p-1 0x1.5aef23115981cp+0";
    "-2447112660605075360 1207761681427412953 [0;1;0;0;198;732417166] 0x1.68df6b2566a78p-3 0x1.ade54892181b9p-1";
    "3938224180021660589 3089717706505003521 [0;0;0;4;808;963702234] 0x1.f13ce0e9ee044p-2 0x1.a94be14d9810ap+0";
    "-9087951579519347599 -1086385135965668088 [0;0;2;3;250;886419337] 0x1.0705ab2c4b902p-1 0x1.75bc32d09efb7p-2";
    "701532786141963250 -2430762948046562554 [0;1;0;5;942;928717247] 0x1.f8d2283914594p-2 0x1.aab15e7eabf68p+0";
    "-8145411768469526773 -1918485682617341449 [0;0;1;3;544;938967803] 0x1.f5346582628d6p-2 0x1.bc152a1dca85ap+1";
    "800583039745179838 -7058896605171262719 [0;0;2;2;281;56656095] 0x1.d32365aa638ffp-1 0x1.ce81d637a930dp+1";
    "7977541671313311182 -2299034797525234977 [0;0;1;5;713;269751] 0x1.ccc45fc804d0ep-2 0x1.610000f7a84fdp+1";
    "1476437146873966238 5568707306851947159 [0;1;0;5;637;775489881] 0x1.e8dc85114b40dp-1 0x1.ce6cbf16b8adap-2";
    "-5808660851801104086 2505054348717777417 [0;1;0;0;479;101530867] 0x1.211a4727c4fep-5 0x1.1e58ba35fdf51p-1";
    "-2502161117704740403 -855344771920233942 [0;0;1;0;29;1044505514] 0x1.8ce5c7c8d078ap-2 0x1.938336228003p+1";
    "8251584173256479677 -5734472554789320577 [0;0;0;2;871;62460831] 0x1.4a4d800ecab1ap-1 0x1.3383c986ff4f2p+1";
    "6749346431204811355 -9122649891023601897 [0;0;1;1;702;190863286] 0x1.eacb2483d33bep-1 0x1.7f7298768e0a1p+0";
    "4099747545748326500 5754472343638500955 [0;1;1;3;810;754632591] 0x1.d212cf4825bp-2 0x1.036822e59582cp+2";
    "-5092280845031213240 -2271687024784822601 [0;0;2;6;201;879037514] 0x1.fe0235693308p-2 0x1.fc0b7b2d3dde4p-1";
    "-3091369264188564930 151357920396419762 [0;1;1;3;271;958473122] 0x1.919d9e82d0692p-2 0x1.c5065a8fecd5cp+2";
    "-7859792227923768240 944015935357829507 [0;0;0;4;907;46150045] 0x1.9a635f11db842p-2 0x1.c53c86acee818p+1";
    "-8501419296621874928 -4447765922801751586 [0;0;0;2;517;475907287] 0x1.2e7acab01bbap-6 0x1.c10d783f24473p+1";
    "2495639054527288290 2495006972643532203 [0;0;0;5;382;939750569] 0x1.9cd7511e88e66p-1 0x1.306fdf3c07fc3p+1";
  ]

let test_stream_pinned () =
  let fresh =
    List.concat_map
      (fun seed ->
        let g = Prng.of_int seed in
        let child = Prng.split g in
        let kids = Prng.split_n g 3 in
        pin_draws g :: pin_draws child :: Array.to_list (Array.map pin_draws kids))
      [ 0; 1; 7; 42; -5; max_int ]
  in
  Alcotest.(check (list string)) "first draws of seeds, splits and split_n children"
    pinned_streams fresh

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
          Alcotest.test_case "stream pinned" `Quick test_stream_pinned;
          QCheck_alcotest.to_alcotest split_n_matches_splits;
          QCheck_alcotest.to_alcotest siblings_non_overlapping;
        ] );
      ( "determinism vs -j",
        [
          Alcotest.test_case "table2 sweep" `Slow test_table2_deterministic;
          Alcotest.test_case "fig5 sweep" `Slow test_fig5_deterministic;
        ] );
    ]

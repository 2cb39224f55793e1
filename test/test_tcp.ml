(* Tests for the TCP model: the sampler arithmetic, and end-to-end flow
   behaviours on a minimal host-switch-host network — clean-link goodput
   near capacity, full recovery from a blackout window via RTO, graceful
   behaviour under reordering (DSACK adaptation suppresses spurious
   retransmissions), and loss recovery through SACK. *)

module Engine = Netsim.Engine
module Net = Netsim.Net
module Graph = Topo.Graph

(* --- sampler --- *)

let test_sampler_bins () =
  let s = Tcp.Sampler.create ~bin_s:1.0 () in
  Tcp.Sampler.add s ~time:0.5 ~bytes:125_000;
  (* 1 Mb in bin 0 *)
  Tcp.Sampler.add s ~time:2.5 ~bytes:250_000;
  (* 2 Mb in bin 2 *)
  let series = Tcp.Sampler.series_mbps s ~until:3.0 in
  Alcotest.(check (list (float 1e-6))) "series" [ 1.0; 0.0; 2.0 ] series

let test_sampler_mean () =
  let s = Tcp.Sampler.create ~bin_s:1.0 () in
  Tcp.Sampler.add s ~time:0.2 ~bytes:125_000;
  Tcp.Sampler.add s ~time:1.2 ~bytes:125_000;
  Alcotest.(check (float 1e-6)) "mean over 2s" 1.0
    (Tcp.Sampler.mean_mbps s ~from_s:0.0 ~until:2.0)

let test_sampler_growth () =
  let s = Tcp.Sampler.create ~bin_s:0.1 () in
  Tcp.Sampler.add s ~time:99.95 ~bytes:1000;
  Alcotest.(check int) "1000 bins" 1000 (List.length (Tcp.Sampler.series_mbps s ~until:100.0))

let test_sampler_errors () =
  (match Tcp.Sampler.create ~bin_s:0.0 () with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "zero bin accepted");
  let s = Tcp.Sampler.create ~bin_s:1.0 () in
  match Tcp.Sampler.add s ~time:(-1.0) ~bytes:10 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative time accepted"

(* --- flow fixture: A - SW3 - B, configurable rate/delay --- *)

let fixture ?(rate = 10e6) ?(delay = 1e-3) () =
  let b = Graph.Builder.create () in
  let s = Graph.Builder.add_node b 3 in
  let a = Graph.Builder.add_node b ~kind:Graph.Edge 100 in
  let h = Graph.Builder.add_node b ~kind:Graph.Edge 101 in
  ignore (Graph.Builder.add_link b ~rate_bps:rate ~delay_s:delay a s);
  let l_sb = Graph.Builder.add_link b ~rate_bps:rate ~delay_s:delay s h in
  let g = Graph.Builder.finish b in
  let engine = Engine.create () in
  let net = Net.create ~graph:g ~engine () in
  Netsim.Karnet.install_switches net ~policy:Kar.Policy.Not_input_port ~seed:1;
  let stack = Tcp.Stack.create ~net () in
  (net, engine, stack, a, h, l_sb)

(* route ids on the fixture: data toward B needs SW3 -> port 1; ACKs toward
   A need SW3 -> port 0.  With switch id 3: 1 mod 3 = 1, 0 mod 3 = 0. *)
let fwd = Bignum.Z.of_int 1
let rev = Bignum.Z.of_int 0

let start_flow ?config ?sampler (net, _, stack, a, h, _) =
  let flow =
    Tcp.Flow.start ~net ~id:1 ~src:a ~dst:h ~fwd_route:fwd ~rev_route:rev
      ?config ?sampler ()
  in
  Tcp.Stack.register stack flow;
  flow

let test_clean_link_goodput () =
  let fx = fixture ~rate:10e6 () in
  let _, engine, _, _, _, _ = fx in
  let sampler = Tcp.Sampler.create ~bin_s:0.5 () in
  let flow = start_flow ~sampler fx in
  Engine.run_until engine 5.0;
  Tcp.Flow.stop flow;
  let goodput = Tcp.Sampler.mean_mbps sampler ~from_s:1.0 ~until:5.0 in
  (* 10 Mb/s link, 40B/1500B header overhead: expect > 8.5 Mb/s goodput *)
  Alcotest.(check bool) (Printf.sprintf "goodput %.2f near capacity" goodput) true
    (goodput > 8.5 && goodput < 10.0);
  let st = Tcp.Flow.stats flow in
  Alcotest.(check int) "no timeouts on a clean link" 0 st.Tcp.Flow.timeouts

let test_receiver_in_order () =
  (* bytes_delivered only counts in-order data; it can never exceed
     bytes_acked + a window *)
  let fx = fixture () in
  let _, engine, _, _, _, _ = fx in
  let flow = start_flow fx in
  Engine.run_until engine 2.0;
  Tcp.Flow.stop flow;
  let st = Tcp.Flow.stats flow in
  Alcotest.(check bool) "delivered tracks acked" true
    (st.Tcp.Flow.bytes_delivered >= st.Tcp.Flow.bytes_acked
     && st.Tcp.Flow.bytes_delivered > 0)

let test_blackout_recovery () =
  let fx = fixture () in
  let net, engine, _, _, _, l_sb = fx in
  let sampler = Tcp.Sampler.create ~bin_s:0.5 () in
  let flow = start_flow ~sampler fx in
  (* total blackout from 1s to 2s *)
  Kar_scenario.Driver.arm net
    Kar_scenario.Event.
      [
        { at = 1.0; action = Fail; link = l_sb };
        { at = 2.0; action = Repair; link = l_sb };
      ];
  Engine.run_until engine 6.0;
  Tcp.Flow.stop flow;
  let st = Tcp.Flow.stats flow in
  Alcotest.(check bool) "timeouts occurred" true (st.Tcp.Flow.timeouts > 0);
  let after = Tcp.Sampler.mean_mbps sampler ~from_s:4.0 ~until:6.0 in
  Alcotest.(check bool) (Printf.sprintf "recovered to %.2f Mb/s" after) true
    (after > 8.0)

(* A flow started from an event at t=1 sends from then on, and not
   before: it begins at the engine's current time. *)
let test_no_data_before_start_time () =
  let fx = fixture () in
  let _, engine, _, _, _, _ = fx in
  let flow = ref None in
  ignore (Engine.schedule_at engine 1.0 (fun () -> flow := Some (start_flow fx)));
  let sent () =
    match !flow with
    | None -> 0
    | Some f -> (Tcp.Flow.stats f).Tcp.Flow.segments_sent
  in
  Engine.run_until engine 0.9;
  Alcotest.(check int) "nothing sent yet" 0 (sent ());
  Engine.run_until engine 2.0;
  Alcotest.(check bool) "sending after start" true (sent () > 0);
  Option.iter Tcp.Flow.stop !flow

let test_stop_halts () =
  let fx = fixture () in
  let _, engine, _, _, _, _ = fx in
  let flow = start_flow fx in
  Engine.run_until engine 1.0;
  Tcp.Flow.stop flow;
  let sent = (Tcp.Flow.stats flow).Tcp.Flow.segments_sent in
  Engine.run_until engine 2.0;
  Alcotest.(check int) "no more segments" sent (Tcp.Flow.stats flow).Tcp.Flow.segments_sent

(* --- reordering: a two-path network that interleaves delays --- *)

(* A - SW3 - {SW5 | SW7} - SW11 - B with distinct delays on the two middle
   paths and a route id whose port at SW3 is invalid, so NIP sprays packets
   across both paths randomly: persistent reordering, no loss. *)
let reorder_fixture () =
  let b = Graph.Builder.create () in
  let s3 = Graph.Builder.add_node b 3 in
  let s5 = Graph.Builder.add_node b 5 in
  let s7 = Graph.Builder.add_node b 7 in
  let s11 = Graph.Builder.add_node b 11 in
  let a = Graph.Builder.add_node b ~kind:Graph.Edge 100 in
  let h = Graph.Builder.add_node b ~kind:Graph.Edge 101 in
  let fast = 20e6 in
  ignore (Graph.Builder.add_link b ~rate_bps:fast ~delay_s:0.5e-3 a s3);
  ignore (Graph.Builder.add_link b ~rate_bps:fast ~delay_s:0.5e-3 s3 s5);
  ignore (Graph.Builder.add_link b ~rate_bps:fast ~delay_s:3e-3 s3 s7);
  ignore (Graph.Builder.add_link b ~rate_bps:fast ~delay_s:0.5e-3 s5 s11);
  ignore (Graph.Builder.add_link b ~rate_bps:fast ~delay_s:0.5e-3 s7 s11);
  ignore (Graph.Builder.add_link b ~rate_bps:fast ~delay_s:0.5e-3 s11 h);
  let g = Graph.Builder.finish b in
  let engine = Engine.create () in
  let net = Net.create ~graph:g ~engine () in
  Netsim.Karnet.install_switches net ~policy:Kar.Policy.Not_input_port ~seed:3;
  let stack = Tcp.Stack.create ~net () in
  (net, engine, stack, a, h)

let test_reordering_tolerated () =
  let net, engine, stack, a, h = reorder_fixture () in
  (* Forward route: at SW3 the computed port (0) is the input port, so NIP
     randomises between SW5 and SW7 on every packet — a persistent two-path
     spray with a 2.5 ms delay skew and no loss.  SW5/SW7 drive to SW11,
     SW11 delivers to B. *)
  let fwd =
    fst
      (Rns.encode_exn
         [ { Rns.modulus = 3; value = 0 }; { Rns.modulus = 5; value = 1 };
           { Rns.modulus = 7; value = 1 }; { Rns.modulus = 11; value = 2 } ])
  in
  (* Reverse route: SW11 -> SW5 -> SW3 -> A, all deterministic. *)
  let rev =
    fst
      (Rns.encode_exn
         [ { Rns.modulus = 11; value = 0 }; { Rns.modulus = 5; value = 0 };
           { Rns.modulus = 3; value = 0 } ])
  in
  let sampler = Tcp.Sampler.create ~bin_s:0.5 () in
  let flow =
    Tcp.Flow.start ~net ~id:1 ~src:a ~dst:h ~fwd_route:fwd ~rev_route:rev
      ~sampler ()
  in
  Tcp.Stack.register stack flow;
  Engine.run_until engine 6.0;
  Tcp.Flow.stop flow;
  let st = Tcp.Flow.stats flow in
  Alcotest.(check bool) "reordering observed" true (st.Tcp.Flow.reorder_events > 100);
  Alcotest.(check bool) "dupthresh adapted above 3" true (st.Tcp.Flow.dupthresh > 3);
  let goodput = Tcp.Sampler.mean_mbps sampler ~from_s:3.0 ~until:6.0 in
  Alcotest.(check bool) (Printf.sprintf "goodput %.2f > 5 Mb/s" goodput) true
    (goodput > 5.0);
  Alcotest.(check bool) "no RTO under pure reordering" true (st.Tcp.Flow.timeouts = 0)

let test_window_limited_throughput () =
  (* cap the receiver window to 4 segments on a 1 ms-delay path: goodput
     must settle near window/RTT, far below the link rate *)
  let fx = fixture ~rate:10e6 ~delay:5e-3 () in
  let _, engine, _, _, _, _ = fx in
  let sampler = Tcp.Sampler.create ~bin_s:0.5 () in
  let flow =
    start_flow
      ~config:{ Tcp.Flow.default_config with Tcp.Flow.max_window_segments = 4 }
      ~sampler fx
  in
  Engine.run_until engine 5.0;
  Tcp.Flow.stop flow;
  let goodput = Tcp.Sampler.mean_mbps sampler ~from_s:1.0 ~until:5.0 in
  (* window = 4 * 1460 B; RTT ~= 4 links * 5 ms + tx ~= 21.2 ms
     -> ~2.2 Mb/s; allow generous slack either side, but it must be far
     below the 10 Mb/s link *)
  Alcotest.(check bool) (Printf.sprintf "window-limited %.2f" goodput) true
    (goodput > 0.5 && goodput < 4.0)

let test_cubic_clean_link () =
  (* CUBIC must also fill a clean link and never time out *)
  let fx = fixture ~rate:10e6 () in
  let _, engine, _, _, _, _ = fx in
  let sampler = Tcp.Sampler.create ~bin_s:0.5 () in
  let flow =
    start_flow
      ~config:{ Tcp.Flow.default_config with Tcp.Flow.cc = Tcp.Flow.Cubic }
      ~sampler fx
  in
  Engine.run_until engine 5.0;
  Tcp.Flow.stop flow;
  let goodput = Tcp.Sampler.mean_mbps sampler ~from_s:1.0 ~until:5.0 in
  Alcotest.(check bool) (Printf.sprintf "cubic goodput %.2f" goodput) true
    (goodput > 8.5 && goodput < 10.0);
  Alcotest.(check int) "no timeouts" 0 (Tcp.Flow.stats flow).Tcp.Flow.timeouts

let test_cubic_backoff_gentler () =
  (* after one loss episode, CUBIC's window floor (0.7x) exceeds Reno's
     (0.5x): compare cwnd just after a forced failure blip *)
  let run cc =
    let fx = fixture ~rate:10e6 () in
    let net, engine, _, _, _, l_sb = fx in
    let flow =
      start_flow ~config:{ Tcp.Flow.default_config with Tcp.Flow.cc } fx
    in
    (* a 30 ms blip loses a handful of segments -> one recovery episode *)
    Kar_scenario.Driver.arm net
      Kar_scenario.Event.
        [
          { at = 1.0; action = Fail; link = l_sb };
          { at = 1.03; action = Repair; link = l_sb };
        ];
    Engine.run_until engine 1.2;
    let d = Tcp.Flow.debug flow in
    Tcp.Flow.stop flow;
    d.Tcp.Flow.ssthresh_bytes
  in
  let reno = run Tcp.Flow.Reno and cubic = run Tcp.Flow.Cubic in
  Alcotest.(check bool)
    (Printf.sprintf "cubic ssthresh %.0f >= reno %.0f" cubic reno)
    true (cubic >= reno)

let () =
  Alcotest.run "tcp"
    [
      ( "sampler",
        [
          Alcotest.test_case "bins" `Quick test_sampler_bins;
          Alcotest.test_case "mean" `Quick test_sampler_mean;
          Alcotest.test_case "growth" `Quick test_sampler_growth;
          Alcotest.test_case "errors" `Quick test_sampler_errors;
        ] );
      ( "flow",
        [
          Alcotest.test_case "clean-link goodput" `Quick test_clean_link_goodput;
          Alcotest.test_case "in-order delivery" `Quick test_receiver_in_order;
          Alcotest.test_case "blackout recovery" `Quick test_blackout_recovery;
          Alcotest.test_case "deferred start" `Quick test_no_data_before_start_time;
          Alcotest.test_case "stop halts transmission" `Quick test_stop_halts;
          Alcotest.test_case "reordering tolerated (DSACK adaptation)" `Slow
            test_reordering_tolerated;
          Alcotest.test_case "window-limited throughput" `Quick
            test_window_limited_throughput;
          Alcotest.test_case "cubic fills a clean link" `Quick test_cubic_clean_link;
          Alcotest.test_case "cubic backs off less than reno" `Quick
            test_cubic_backoff_gentler;
        ] );
    ]

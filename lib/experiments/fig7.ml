type point = {
  case : string;
  goodput : Util.Stats.summary;
  analysis : Kar.Markov.analysis option;
}

let paper_note =
  "Paper: SW7-SW13 drops <5% (deterministic one-extra-hop detour via \
   11->17->71); SW13-SW41 drops ~40% with the highest variance (2 of 5 \
   alternatives driven); SW41-SW73 drops ~30% (both alternatives driven, \
   different lengths)."

let run ?(profile = Profile.from_env ()) () =
  let sc = Topo.Nets.rnp28 in
  let config failure =
    {
      Workload.Runner.default_iperf with
      policy = Workload.Runner.Kar Kar.Policy.Not_input_port;
      level = Kar.Controller.Partial;
      failure;
      reps = profile.Profile.iperf_reps;
      rep_duration_s = profile.Profile.iperf_duration_s;
    }
  in
  (* All four cases run at the same protection level, so the route plans
     are encoded exactly once and shared (immutably) by every rep. *)
  let plans = Workload.Runner.scenario_plans sc Kar.Controller.Partial in
  let plan = fst plans in
  let cases =
    Array.of_list (None :: List.map Option.some sc.Topo.Nets.failures)
  in
  let reps = profile.Profile.iperf_reps in
  (* One task per (case, rep): with only four cases, flattening to rep
     granularity keeps every domain busy.  Seeds come from the rep index,
     and samples are regrouped in case-major order, so the summaries are
     the ones the serial loop computed. *)
  let units =
    Array.init (Array.length cases * reps) (fun u -> (u / reps, u mod reps))
  in
  let samples =
    Util.Pool.run units ~f:(fun ~idx:_ (ci, ri) ->
        let cfg = config cases.(ci) in
        Workload.Runner.one_iperf ~plans sc cfg
          ~seed:(Workload.Runner.rep_seed ri))
  in
  let goodput ci =
    Util.Stats.summarize (Array.to_list (Array.sub samples (ci * reps) reps))
  in
  Array.to_list
    (Array.mapi
       (fun ci case ->
         match case with
         | None -> { case = "no failure"; goodput = goodput ci; analysis = None }
         | Some fc ->
           {
             case = fc.Topo.Nets.name;
             goodput = goodput ci;
             analysis =
               Some
                 (Kar.Markov.analyze sc.Topo.Nets.graph ~plan
                    ~policy:Kar.Policy.Not_input_port
                    ~failed:[ fc.Topo.Nets.link ] ~src:sc.Topo.Nets.ingress
                    ~dst:sc.Topo.Nets.egress);
           })
       cases)

let to_string ?(profile = Profile.from_env ()) () =
  let points = run ~profile () in
  let nominal =
    match points with
    | { goodput; _ } :: _ -> goodput.Util.Stats.mean
    | [] -> nan
  in
  let header =
    [ "Case"; "Goodput (Mb/s)"; "95% CI"; "vs no-failure"; "P(deliver)"; "E[hops|del]" ]
  in
  let body =
    List.map
      (fun p ->
        [
          p.case;
          Printf.sprintf "%.1f" p.goodput.Util.Stats.mean;
          Printf.sprintf "+/- %.1f" p.goodput.Util.Stats.ci95;
          Printf.sprintf "%+.1f%%"
            ((p.goodput.Util.Stats.mean -. nominal) /. nominal *. 100.0);
          (match p.analysis with
           | None -> "-"
           | Some a -> Printf.sprintf "%.3f" a.Kar.Markov.p_delivered);
          (match p.analysis with
           | None -> "-"
           | Some a -> Printf.sprintf "%.2f" a.Kar.Markov.expected_hops_delivered);
        ])
      points
  in
  Printf.sprintf
    "Fig. 7: RNP backbone goodput, NIP + partial protection (%d reps x %gs)\n"
    profile.Profile.iperf_reps profile.Profile.iperf_duration_s
  ^ Util.Texttab.render ~header body
  ^ paper_note ^ "\n"

type result = {
  nominal : Util.Stats.summary;
  failed : Util.Stats.summary;
  ratio : float;
  analysis : Kar.Markov.analysis;
  loop_hops_histogram : int array;
}

let paper_note =
  "Paper: the protection loop (73->71->17->41->73, escape via SW109 with \
   probability 1/2 per visit) inflates hop counts geometrically; measured \
   throughput decreases to 54.8% of the nominal bandwidth."

let run ?(profile = Profile.from_env ()) () =
  let sc = Topo.Nets.rnp_fig8 in
  let fc = List.hd sc.Topo.Nets.failures in
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
  let nominal = Workload.Runner.iperf_reps sc (config None) in
  let failed = Workload.Runner.iperf_reps sc (config (Some fc)) in
  let plan = Kar.Controller.scenario_plan sc Kar.Controller.Partial in
  let analysis =
    Kar.Markov.analyze sc.Topo.Nets.graph ~plan ~policy:Kar.Policy.Not_input_port
      ~failed:[ fc.Topo.Nets.link ] ~src:sc.Topo.Nets.ingress
      ~dst:sc.Topo.Nets.egress
  in
  let loop_hops_histogram =
    Kar.Walk.hop_histogram sc.Topo.Nets.graph ~plan
      ~policy:Kar.Policy.Not_input_port ~failed:[ fc.Topo.Nets.link ]
      ~src:sc.Topo.Nets.ingress ~dst:sc.Topo.Nets.egress
      ~trials:profile.Profile.walk_trials ~seed:11
  in
  {
    nominal;
    failed;
    ratio = failed.Util.Stats.mean /. nominal.Util.Stats.mean;
    analysis;
    loop_hops_histogram;
  }

let to_string ?(profile = Profile.from_env ()) () =
  let r = run ~profile () in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "Fig. 8: redundant-path worst case (route ...73->107->113, failure \
     SW73-SW107, NIP)\n";
  Buffer.add_string buf
    (Util.Texttab.render_kv
       [
         ("nominal goodput", Printf.sprintf "%.1f Mb/s +/- %.1f" r.nominal.Util.Stats.mean r.nominal.Util.Stats.ci95);
         ("under failure", Printf.sprintf "%.1f Mb/s +/- %.1f" r.failed.Util.Stats.mean r.failed.Util.Stats.ci95);
         ("ratio", Printf.sprintf "%.1f%% of nominal (paper: 54.8%%)" (100.0 *. r.ratio));
         ("exact P(deliver)", Printf.sprintf "%.4f" r.analysis.Kar.Markov.p_delivered);
         ("exact E[hops|deliver]", Printf.sprintf "%.2f (5 without failure)" r.analysis.Kar.Markov.expected_hops_delivered);
       ]);
  (* Hop histogram: the geometric loop signature (mass at 5, 9, 13, ...). *)
  let interesting =
    let hist = r.loop_hops_histogram in
    let upto = Stdlib.min 40 (Array.length hist - 1) in
    List.filter_map
      (fun h -> if hist.(h) > 0 then Some (Printf.sprintf "%d:%d" h hist.(h)) else None)
      (List.init (upto + 1) (fun i -> i))
  in
  Buffer.add_string buf
    ("delivered-hops histogram (hops:count): " ^ String.concat " " interesting ^ "\n");
  Buffer.add_string buf paper_note;
  Buffer.add_char buf '\n';
  Buffer.contents buf

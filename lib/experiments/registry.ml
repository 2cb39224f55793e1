type entry = {
  id : string;
  doc : string;
  run : Profile.t -> string;
  metrics : (Profile.t -> string) option;
}

type group = {
  name : string;
  alias : string;
  entries : entry list;
}

let e ?metrics id doc run = { id; doc; run; metrics }

let groups =
  [
    {
      name = "Figures";
      alias = "figures";
      entries =
        [
          e "fig1" "Section 2 worked example (route IDs 44 and 660)"
            (fun _ -> Fig1.to_string ());
          e "fig4" "Fig. 4: goodput timeline across a failure, per policy"
            (fun p -> Fig4.to_string ~profile:p ());
          e "fig5" "Fig. 5: goodput vs failure x protection x technique"
            (fun p -> Fig5.to_string ~profile:p ());
          e "fig7" "Fig. 7: RNP backbone failures under NIP + partial protection"
            (fun p -> Fig7.to_string ~profile:p ());
          e "fig8" "Fig. 8: redundant-path worst case"
            (fun p -> Fig8.to_string ~profile:p ());
        ];
    };
    {
      name = "Tables";
      alias = "tables";
      entries =
        [
          e "table1" "Table 1: route-ID bit lengths per protection level"
            (fun _ -> Table1.to_string ());
          e "table2" "Table 2: design-space comparison with measured evidence"
            (fun _ -> Table2.to_string ());
        ];
    };
    {
      name = "Ablations";
      alias = "ablations";
      entries =
        [
          e "hops" "Ablation: exact vs Monte-Carlo walk metrics per policy"
            (fun _ -> Ablations.policy_hops_table ());
          e "ids" "Ablation: switch-ID assignment strategies"
            (fun _ -> Ablations.ids_table ());
          e "budget" "Ablation: protection bit budget vs delivery"
            (fun _ -> Ablations.budget_table ());
          e "planner" "Ablation: distance-ordered vs analysis-guided protection"
            (fun _ -> Ablations.planner_table ());
          e "cc" "Ablation: Reno vs CUBIC under deflection"
            (fun p -> Ablations.cc_table ~profile:p ());
          e "delivery" "Ablation: UDP delivery ratio per policy"
            (fun p -> Ablations.delivery_table ~profile:p ());
        ];
    };
    {
      name = "Beyond the paper";
      alias = "beyond";
      entries =
        [
          e "schemes" "Beyond the paper: reaction-scheme comparison"
            (fun p -> Reaction.compare_to_string ~profile:p ());
          e "detection" "Beyond the paper: failure-detection sensitivity"
            (fun p -> Reaction.detection_to_string ~profile:p ());
          e "bystander" "Beyond the paper: interference with bystander traffic"
            (fun p -> Congestion.to_string ~profile:p ());
          e "scaling" "Beyond the paper: route-ID bits vs network size"
            (fun _ -> Scaling.to_string ());
          e "multipath" "Beyond the paper: multipath header cost"
            (fun _ -> Scaling.multipath_to_string ());
          e "multifail" "Beyond the paper: simultaneous multiple failures"
            (fun _ -> Multifailure.to_string ());
          e "churn"
            "Beyond the paper: KAR vs baselines under flapping, regional \
             and adversarial failure schedules, both planes"
            (fun p -> Churn.to_string ~profile:p ())
            ~metrics:(fun p -> Churn.to_string ~profile:p ~metrics:true ());
        ];
    };
    {
      name = "Verification";
      alias = "verification";
      entries =
        [
          e "invariants"
            "Trace-checked invariants over every single core-link failure"
            (fun _ -> Invariants.to_string ());
          e "verify"
            "Exhaustive k-failure resilience verifier (adversarial \
             deflection)"
            (fun _ -> Verify.to_string ())
            ~metrics:(fun _ -> Verify.to_string ~metrics:true ());
        ];
    };
    {
      name = "Service";
      alias = "service";
      entries =
        [
          e "svc" "Online plan server: steady state, skew sweep, replan storm"
            (fun p -> Service.to_string ~profile:p ())
            ~metrics:(fun p -> Service.to_string ~profile:p ~metrics:true ());
        ];
    };
  ]

let all = List.concat_map (fun g -> g.entries) groups

(* Classic two-row Levenshtein, for suggesting the closest name on a
   typo. *)
let edit_distance a b =
  let la = String.length a and lb = String.length b in
  let prev = Array.init (lb + 1) (fun j -> j) in
  let curr = Array.make (lb + 1) 0 in
  for i = 1 to la do
    curr.(0) <- i;
    for j = 1 to lb do
      let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
      curr.(j) <- min (min (curr.(j - 1) + 1) (prev.(j) + 1)) (prev.(j - 1) + cost)
    done;
    Array.blit curr 0 prev 0 (lb + 1)
  done;
  prev.(lb)

let find name =
  match List.find_opt (fun en -> en.id = name) all with
  | Some en -> `Entry en
  | None ->
    (match List.find_opt (fun g -> g.alias = name) groups with
     | Some g -> `Group g
     | None -> `Unknown)

(* Every runnable name: ids plus the group aliases — the suggestion pool
   must cover both, so `kar_experiments figure` points at the alias and
   not just at fig1..fig8. *)
let names = List.map (fun en -> en.id) all @ List.map (fun g -> g.alias) groups

let nearest name =
  List.fold_left
    (fun (best, d) candidate ->
      let d' = edit_distance name candidate in
      if d' < d then (candidate, d') else (best, d))
    ("", max_int) names

(** Ablations beyond the paper's figures — the design choices DESIGN.md
    calls out, each quantified:

    - deflection-policy hop inflation, measured exactly by the Markov
      analysis and cross-checked by Monte Carlo, across the paper's failure
      cases;
    - protection-level delivery probability on synthetic topologies;
    - switch-ID assignment strategies versus route-ID bit growth;
    - partial-protection bit budgets versus coverage (the section 2.3
      loose-source-routing trade-off);
    - UDP delivery ratio and hop inflation per policy (loss-avoidance
      claim of the conclusion). *)

(** Exact per-policy walk metrics for every scenario failure case. *)
val policy_hops_table : unit -> string

(** Route-ID bit growth per assignment strategy on generated topologies. *)
val ids_table : unit -> string

(** Protection bit budget versus delivery probability (net15, SW13-SW29
    failure, NIP): the loose-source-routing trade-off of section 2.3. *)
val budget_table : unit -> string

(** Distance-ordered versus analysis-guided protection placement at equal
    bit budgets (see {!Kar.Optimizer}). *)
val planner_table : unit -> string

(** Reno vs CUBIC congestion control under each deflection policy. *)
val cc_table : ?profile:Profile.t -> unit -> string

(** UDP/CBR delivery ratio per policy during failure (net15, SW7-SW13). *)
val delivery_table : ?profile:Profile.t -> unit -> string

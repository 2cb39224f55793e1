(** Small statistics toolkit for the experiment harness: the paper reports
    mean TCP throughput with 95 % confidence intervals over 30 iperf runs
    (Fig. 5/7); this module provides exactly those summaries. *)

type summary = {
  n : int;
  mean : float;
  stddev : float; (* sample standard deviation (n-1 denominator) *)
  ci95 : float; (* half-width of the 95 % Student-t confidence interval *)
  min : float;
  max : float;
}

(** [mean xs] of a non-empty list. *)
val mean : float list -> float

(** [stddev xs] sample standard deviation; 0 for fewer than two samples. *)
val stddev : float list -> float

(** [summarize xs] computes all summary fields.
    @raise Invalid_argument on the empty list. *)
val summarize : float list -> summary

(** [t_critical_95 df] is the two-sided 95 % Student-t critical value for
    [df] degrees of freedom (tabulated; converges to 1.96). *)
val t_critical_95 : int -> float

(** {2 Nearest-rank percentiles}

    Production code reads percentiles only from the streaming
    [Kar_obs.Registry] histograms ([h_quantile]).  This is the exact
    reference those bucketed quantiles are tested against, using the
    {e nearest-rank} definition: the [p]-th percentile of [n] samples is
    the [ceil (p/100 * n)]-th smallest — always an {e observed} sample,
    never an interpolated value.  It takes the raw (unsorted) sample array
    and sorts a private copy. *)

(** [percentile_nearest_rank p xs] with [0 < p <= 100].
    @raise Invalid_argument on an empty array or [p] out of range. *)
val percentile_nearest_rank : float -> float array -> float

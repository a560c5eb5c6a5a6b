(** Bayesian Boolean Inference (paper §2, §3.1): pose Boolean Inference
    as maximum-likelihood estimation over the solutions consistent with
    one interval's path observations, using probabilities learned by a
    Probability Computation step.

    Consistency means: the solution contains no link of a good path and
    covers every congested path (Separability in both directions).
    Finding the most probable consistent solution is NP-complete [11], so
    both variants use approximations:

    - {b Bayesian-Independence} (CLINK [11]): greedy weighted set cover —
      each candidate link [e] costs [log((1−p_e)/p_e)] (cheap if likely
      congested), pick the candidate minimizing cost per newly covered
      congested path; then prune links made redundant by later picks
      (each removal strictly improves the independence likelihood since
      [p_e < 1/2] in practice).
    - {b Bayesian-Correlation} (the paper's own [10]): same greedy seed
      (without the [p > 1/2] rule), then up to four hill-climbing passes
      over single-link moves — remove a link if the rest still covers
      every congested path, add one only if another link of its
      correlation set is already blamed — each kept if it raises the
      correlation-aware log-likelihood
      [Σ_C log P(pattern of C)] from {!Prob_engine.pattern_logprob}.

    Its characteristic failures (§3.1) are inherent and intentionally
    reproduced: both variants substitute long-run probabilities for the
    current interval's state (hurts under non-stationarity), and the
    correlation variant additionally needs Identifiability++ to have all
    the probabilities it wants (on sparse topologies it falls back to
    independence approximations for the missing ones). *)

(** [infer_independence model ~marginals ~congested_paths ~good_paths]
    runs the CLINK-style MAP approximation with per-link congestion
    probabilities [marginals].  [include_likely] (default [true])
    includes every consistent link with [p > 1/2] — part of the
    independence MAP optimum, and the conduit through which wrong
    marginals become false positives. *)
val infer_independence :
  ?include_likely:bool ->
  Model.t ->
  marginals:float array ->
  congested_paths:Tomo_util.Bitset.t ->
  good_paths:Tomo_util.Bitset.t ->
  Tomo_util.Bitset.t

(** [infer_correlation model ~engine ~congested_paths ~good_paths] runs
    the correlation-aware MAP approximation on top of a solved
    Probability Computation engine. *)
val infer_correlation :
  Model.t ->
  engine:Prob_engine.t ->
  congested_paths:Tomo_util.Bitset.t ->
  good_paths:Tomo_util.Bitset.t ->
  Tomo_util.Bitset.t

(** [solution_logprob model ~engine solution] is the correlation-aware
    log-probability of a full network state: for each correlation set,
    the probability of the exact pattern (its links in [solution]
    congested, its other effective links good).  Exposed for tests and
    the examples. *)
val solution_logprob :
  Model.t -> engine:Prob_engine.t -> Tomo_util.Bitset.t -> float

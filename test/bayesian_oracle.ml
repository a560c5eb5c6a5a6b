(* Reference Boolean inference for the parity battery: the greedy cover,
   prune and hill-climb of Bayesian-Independence/-Correlation written
   the direct way — every pick rescans each candidate's uncovered
   paths by popcount, every "still a cover?" test re-folds all congested
   paths, every correlation set is scored up front, and link marginals
   come uncached from [Prob_engine.link_marginal_with `Adaptive].
   {!Tomo.Bayesian} must agree with it bit for bit. *)

module Bitset = Tomo_util.Bitset
module Model = Tomo.Model
module Prob_engine = Tomo.Prob_engine
module Algorithm1 = Tomo.Algorithm1

let clamp_p p = min (1.0 -. 1e-6) (max 1e-6 p)

let candidate_links model ~congested_paths ~good_paths =
  let good_links =
    Model.links_of_paths model (Array.of_list (Bitset.to_list good_paths))
  in
  let acc = ref [] in
  for e = model.Model.n_links - 1 downto 0 do
    if
      (not (Bitset.get good_links e))
      && not (Bitset.disjoint model.Model.link_paths.(e) congested_paths)
    then acc := e :: !acc
  done;
  Array.of_list !acc

let still_covered model ~congested_paths solution =
  Bitset.fold
    (fun ok p ->
      ok && not (Bitset.disjoint model.Model.path_links.(p) solution))
    true congested_paths

let infer_independence ?(include_likely = true) model ~marginals
    ~congested_paths ~good_paths =
  let candidates = candidate_links model ~congested_paths ~good_paths in
  let solution = Bitset.create model.Model.n_links in
  let uncovered = Bitset.copy congested_paths in
  if include_likely then
    Array.iter
      (fun e ->
        if clamp_p marginals.(e) > 0.5 then begin
          Bitset.set solution e;
          Bitset.diff_into ~into:uncovered model.Model.link_paths.(e)
        end)
      candidates;
  let continue_ = ref true in
  while !continue_ && not (Bitset.is_empty uncovered) do
    let best = ref (-1) and best_ratio = ref neg_infinity in
    Array.iter
      (fun e ->
        if not (Bitset.get solution e) then begin
          let cover =
            Bitset.count_inter model.Model.link_paths.(e) uncovered
          in
          if cover > 0 then begin
            let p = clamp_p marginals.(e) in
            let cost = max 1e-9 (log ((1.0 -. p) /. p)) in
            let ratio = float_of_int cover /. cost in
            if ratio > !best_ratio then begin
              best := e;
              best_ratio := ratio
            end
          end
        end)
      candidates;
    if !best < 0 then continue_ := false
    else begin
      Bitset.set solution !best;
      Bitset.diff_into ~into:uncovered model.Model.link_paths.(!best)
    end
  done;
  let by_cost =
    List.sort
      (fun a b -> compare marginals.(a) marginals.(b))
      (List.filter
         (fun e -> clamp_p marginals.(e) <= 0.5)
         (Bitset.to_list solution))
  in
  List.iter
    (fun e ->
      Bitset.clear solution e;
      if not (still_covered model ~congested_paths solution) then
        Bitset.set solution e)
    by_cost;
  solution

let corr_logprob model ~engine solution c =
  let eff = engine.Prob_engine.selection.Algorithm1.effective in
  let eff_links =
    List.filter (Bitset.get eff) (Array.to_list (Model.corr_set_links model c))
  in
  if eff_links = [] then 0.0
  else
    let congested, good = List.partition (Bitset.get solution) eff_links in
    Prob_engine.pattern_logprob engine ~corr:c
      ~congested:(Array.of_list congested) ~good:(Array.of_list good)

let infer_correlation model ~engine ~congested_paths ~good_paths =
  let marginals =
    Array.init model.Model.n_links
      (Prob_engine.link_marginal_with `Adaptive engine)
  in
  let solution =
    infer_independence ~include_likely:false model ~marginals
      ~congested_paths ~good_paths
  in
  let candidates = candidate_links model ~congested_paths ~good_paths in
  let contrib =
    Array.init (Model.n_corr_sets model) (corr_logprob model ~engine solution)
  in
  let covers_without e =
    Bitset.clear solution e;
    let ok = still_covered model ~congested_paths solution in
    Bitset.set solution e;
    ok
  in
  let improved = ref true and passes = ref 0 in
  while !improved && !passes < 4 do
    improved := false;
    incr passes;
    Array.iter
      (fun e ->
        let c = model.Model.corr_of_link.(e) in
        let was = Bitset.get solution e in
        let allowed =
          if was then covers_without e
          else
            Array.exists
              (fun e' -> e' <> e && Bitset.get solution e')
              (Model.corr_set_links model c)
        in
        if allowed then begin
          Bitset.assign solution e (not was);
          let after = corr_logprob model ~engine solution c in
          if after > contrib.(c) +. 1e-12 then begin
            contrib.(c) <- after;
            improved := true
          end
          else Bitset.assign solution e was
        end)
      candidates
  done;
  solution

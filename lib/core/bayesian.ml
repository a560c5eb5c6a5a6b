module Bitset = Tomo_util.Bitset

let clamp_p p = min (1.0 -. 1e-6) (max 1e-6 p)

(* Links consistent with this interval's observation: on some congested
   path and on no good path. Links with no path at all are unconstrained
   and never inferred. *)
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

(* Cover bookkeeping for one interval's greedy seed, prune and
   hill-climb.  Candidates are addressed by their index [i] in the
   ascending candidate array; [cpaths.(i)] lists the congested paths
   through candidate [i].  [hits.(p)] counts the solution links on
   congested path [p] and [bare] the congested paths with none, so "is
   the solution still a cover without [i]?" reads only [i]'s paths. *)
type cover = {
  candidates : int array;
  cpaths : int array array;
  solution : Bitset.t;
  hits : int array;
  mutable bare : int;
}

let make_cover model ~candidates ~congested_paths =
  let cpaths =
    Array.map
      (fun e ->
        Array.of_list
          (Bitset.to_list
             (Bitset.inter model.Model.link_paths.(e) congested_paths)))
      candidates
  in
  {
    candidates;
    cpaths;
    solution = Bitset.create model.Model.n_links;
    hits = Array.make model.Model.n_paths 0;
    bare = Bitset.count congested_paths;
  }

(* [add cv ~on_cover i] puts candidate [i] in the solution; [on_cover p]
   runs for every congested path [p] it covers for the first time. *)
let add ?(on_cover = ignore) cv i =
  Bitset.set cv.solution cv.candidates.(i);
  Array.iter
    (fun p ->
      if cv.hits.(p) = 0 then begin
        cv.bare <- cv.bare - 1;
        on_cover p
      end;
      cv.hits.(p) <- cv.hits.(p) + 1)
    cv.cpaths.(i)

let remove cv i =
  Bitset.clear cv.solution cv.candidates.(i);
  Array.iter
    (fun p ->
      cv.hits.(p) <- cv.hits.(p) - 1;
      if cv.hits.(p) = 0 then cv.bare <- cv.bare + 1)
    cv.cpaths.(i)

(* Every congested path keeps a solution link once [i] is dropped. *)
let removable cv i =
  cv.bare = 0 && Array.for_all (fun p -> cv.hits.(p) >= 2) cv.cpaths.(i)

let greedy_cover ~include_likely model ~marginals ~candidates
    ~congested_paths =
  let cv = make_cover model ~candidates ~congested_paths in
  let n = Array.length candidates in
  (* Per candidate: congested paths it would newly cover. Covering a
     path takes one off the count of every candidate on it, so solution
     members are at 0. *)
  let fresh = Array.map Array.length cv.cpaths in
  let path_cands = Array.make model.Model.n_paths [] in
  for i = n - 1 downto 0 do
    Array.iter (fun p -> path_cands.(p) <- i :: path_cands.(p)) cv.cpaths.(i)
  done;
  let on_cover p =
    List.iter (fun j -> fresh.(j) <- fresh.(j) - 1) path_cands.(p)
  in
  (* MAP under independence: a consistent link with p > 1/2 raises the
     posterior whether or not it covers anything new, so CLINK's optimum
     includes it. This is exactly where wrong marginals (correlated
     links mis-learned by the Independence PC step) turn into false
     positives. The correlation-aware variant seeds without this rule
     and lets the joint-probability hill-climb decide instead. *)
  if include_likely then
    Array.iteri
      (fun i e -> if clamp_p marginals.(e) > 0.5 then add ~on_cover cv i)
      candidates;
  (* Greedy weighted cover: cost log((1-p)/p) per link (clamped to a
     small positive value for p >= 1/2, so near-certain links are picked
     first), benefit = newly covered congested paths. *)
  let cost =
    Array.map
      (fun e ->
        let p = clamp_p marginals.(e) in
        max 1e-9 (log ((1.0 -. p) /. p)))
      candidates
  in
  let continue_ = ref true in
  while !continue_ && cv.bare > 0 do
    let best = ref (-1) and best_ratio = ref neg_infinity in
    for i = 0 to n - 1 do
      if fresh.(i) > 0 then begin
        let ratio = float_of_int fresh.(i) /. cost.(i) in
        if ratio > !best_ratio then begin
          best := i;
          best_ratio := ratio
        end
      end
    done;
    if !best < 0 then continue_ := false else add ~on_cover cv !best
  done;
  (* Prune: drop links made redundant by later picks, most unlikely
     first; each drop strictly improves the likelihood (p < 1/2). *)
  let members =
    List.filter
      (fun i ->
        Bitset.get cv.solution candidates.(i)
        && clamp_p marginals.(candidates.(i)) <= 0.5)
      (List.init n Fun.id)
  in
  let by_cost =
    List.sort
      (fun a b ->
        compare marginals.(candidates.(a)) marginals.(candidates.(b)))
      members
  in
  List.iter (fun i -> if removable cv i then remove cv i) by_cost;
  cv

let infer_independence ?(include_likely = true) model ~marginals
    ~congested_paths ~good_paths =
  let candidates = candidate_links model ~congested_paths ~good_paths in
  (greedy_cover ~include_likely model ~marginals ~candidates
     ~congested_paths)
    .solution

let effective_of_corr model ~engine c =
  let eff = engine.Prob_engine.selection.Algorithm1.effective in
  Array.of_list
    (List.filter
       (fun e -> Bitset.get eff e)
       (Array.to_list (Model.corr_set_links model c)))

let corr_logprob model ~engine solution c =
  let eff_links = effective_of_corr model ~engine c in
  if Array.length eff_links = 0 then 0.0
  else begin
    let congested, good =
      Array.to_list eff_links
      |> List.partition (fun e -> Bitset.get solution e)
    in
    Prob_engine.pattern_logprob engine ~corr:c
      ~congested:(Array.of_list congested) ~good:(Array.of_list good)
  end

let solution_logprob model ~engine solution =
  let total = ref 0.0 in
  for c = 0 to Model.n_corr_sets model - 1 do
    total := !total +. corr_logprob model ~engine solution c
  done;
  !total

let infer_correlation model ~engine ~congested_paths ~good_paths =
  let marginals =
    Array.init model.Model.n_links (Prob_engine.link_marginal engine)
  in
  let candidates = candidate_links model ~congested_paths ~good_paths in
  let cv =
    greedy_cover ~include_likely:false model ~marginals ~candidates
      ~congested_paths
  in
  let solution = cv.solution in
  (* Hill-climb on the correlation-aware likelihood. Only the moved
     link's correlation set changes, so score deltas are local, and only
     sets holding a candidate are ever scored. *)
  let contrib = Array.make (Model.n_corr_sets model) 0.0 in
  let scored = Array.make (Model.n_corr_sets model) false in
  Array.iter
    (fun e ->
      let c = model.Model.corr_of_link.(e) in
      if not scored.(c) then begin
        scored.(c) <- true;
        contrib.(c) <- corr_logprob model ~engine solution c
      end)
    candidates;
  let improved = ref true and passes = ref 0 in
  while !improved && !passes < 4 do
    improved := false;
    incr passes;
    Array.iteri
      (fun i e ->
        let c = model.Model.corr_of_link.(e) in
        let was = Bitset.get solution e in
        (* Removals are always on the table; additions only when driven
           by correlation evidence — another link of the same set is
           already blamed — so the independence fallback cannot inflate
           the solution with merely-likely links. *)
        let allowed =
          if was then removable cv i
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
            improved := true;
            if was then remove cv i else add cv i
          end
          else Bitset.assign solution e was
        end)
      candidates
  done;
  solution

(* Integration tests: workload preparation, figure harnesses, and the
   paper's qualitative orderings at reduced scale (fixed seeds). *)

module W = Tomo_experiments.Workload
module Fig3 = Tomo_experiments.Fig3
module Fig4 = Tomo_experiments.Fig4
module Render = Tomo_experiments.Render
module Scenario = Tomo_netsim.Scenario
module Overlay = Tomo_topology.Overlay
module Bitset = Tomo_util.Bitset

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* substring search, Boyer-Moore not needed at this size *)
let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else go (i + 1)
  in
  go 0


let prepare ?(topology = W.Brite) ?(scenario = Scenario.Random)
    ?(nonstationary = false) ?(seed = 3) () =
  W.prepare (W.spec ~scale:W.Small ~seed ~nonstationary topology scenario)

(* ------------------------------------------------------------------ *)
(* Workload                                                            *)
(* ------------------------------------------------------------------ *)

let test_workload_shapes () =
  let w = prepare () in
  let n_links = Overlay.n_links w.W.overlay in
  check_int "model links" n_links w.W.model.Tomo.Model.n_links;
  check_int "model paths" (Overlay.n_paths w.W.overlay)
    w.W.model.Tomo.Model.n_paths;
  check_int "obs intervals" (W.t_intervals W.Small)
    (Tomo.Observations.t_intervals w.W.obs);
  check_int "truth per link" n_links (Array.length w.W.truth_marginals)

let test_workload_truth_range () =
  let w = prepare ~scenario:Scenario.No_independence () in
  Array.iter
    (fun p ->
      if p < 0.0 || p > 1.0 then Alcotest.fail "truth outside [0,1]")
    w.W.truth_marginals;
  (* roughly 10% of links have a positive marginal *)
  let positive =
    Array.fold_left (fun a p -> if p > 0.0 then a + 1 else a) 0
      w.W.truth_marginals
  in
  let n = Array.length w.W.truth_marginals in
  check_bool "about 10% congestible" true
    (positive > n / 20 && positive < n / 3)

let test_workload_model_corr_sets_partition () =
  let w = prepare ~topology:W.Sparse () in
  let m = w.W.model in
  let seen = Array.make m.Tomo.Model.n_links 0 in
  Array.iter
    (Array.iter (fun e -> seen.(e) <- seen.(e) + 1))
    m.Tomo.Model.corr_sets;
  Array.iteri
    (fun e c ->
      if c <> 1 then
        Alcotest.failf "link %d appears %d times in correlation sets" e c)
    seen

let test_workload_deterministic () =
  let w1 = prepare ~seed:11 () and w2 = prepare ~seed:11 () in
  check_int "same topology"
    (Overlay.n_links w1.W.overlay)
    (Overlay.n_links w2.W.overlay);
  Alcotest.(check (array (float 0.0)))
    "same truth" w1.W.truth_marginals w2.W.truth_marginals

(* ------------------------------------------------------------------ *)
(* Fig3                                                                *)
(* ------------------------------------------------------------------ *)

let test_fig3_cells_in_range () =
  let w = prepare () in
  List.iter
    (fun a ->
      let c = Fig3.run_cell w a in
      if
        c.Fig3.detection < 0.0 || c.Fig3.detection > 1.0
        || c.Fig3.false_positive < 0.0
        || c.Fig3.false_positive > 1.0
      then
        Alcotest.failf "out-of-range metrics for %s"
          (Fig3.algorithm_to_string a))
    Fig3.algorithms

(* Medium scale, seed 5, No Stationarity: some interval's correlation
   set holds more than 20 congested links, past exact
   inclusion-exclusion. Bayesian-Correlation must fall back to the
   independence reading, not raise. *)
let test_fig3_wide_congestion_completes () =
  let w =
    W.prepare
      (W.spec ~scale:W.Medium ~seed:5 ~nonstationary:true W.Brite
         Scenario.No_independence)
  in
  let c = Fig3.run_cell w Fig3.Bayesian_correlation in
  check_bool "detection in range" true
    (c.Fig3.detection >= 0.0 && c.Fig3.detection <= 1.0);
  check_bool "false positives in range" true
    (c.Fig3.false_positive >= 0.0 && c.Fig3.false_positive <= 1.0)

let test_fig3_scenarios_cover_paper () =
  let scenarios = Fig3.scenarios ~scale:W.Small ~seed:1 in
  check_int "five scenarios" 5 (List.length scenarios);
  let labels = List.map fst scenarios in
  check_bool "sparse last" true
    (List.nth labels 4 = "Sparse Topology")

let test_fig3_sparse_degrades () =
  (* The paper's central negative result: inference on the Sparse
     topology is much worse than on Brite under the same (random)
     congestion. Averaged over the three algorithms. *)
  let brite = prepare ~seed:5 () in
  let sparse = prepare ~topology:W.Sparse ~seed:5 () in
  let mean_det w =
    List.fold_left
      (fun acc a -> acc +. (Fig3.run_cell w a).Fig3.detection)
      0.0 Fig3.algorithms
    /. 3.0
  in
  check_bool "sparse detection below brite" true
    (mean_det sparse < mean_det brite)

(* ------------------------------------------------------------------ *)
(* Fig4                                                                *)
(* ------------------------------------------------------------------ *)

let test_fig4_pc_in_range () =
  let w = prepare ~scenario:Scenario.No_independence () in
  List.iter
    (fun a ->
      let r, _ = Fig4.run_pc w a in
      Array.iter
        (fun p ->
          if p < 0.0 || p > 1.0 then
            Alcotest.failf "marginal out of range for %s"
              (Fig4.algorithm_to_string a))
        r.Tomo.Pc_result.marginals)
    Fig4.algorithms

let test_fig4_correlation_beats_independence () =
  (* The paper's central positive result: under correlated congestion,
     Correlation-complete's per-link error is below Independence's.
     Small-scale single-seed runs are noisy, so average over seeds. *)
  let seeds = [ 1; 2; 3; 4; 5 ] in
  let total_ind = ref 0.0 and total_cc = ref 0.0 in
  List.iter
    (fun seed ->
      let w =
        prepare ~scenario:Scenario.No_independence ~nonstationary:true
          ~seed ()
      in
      let err a =
        let r, _ = Fig4.run_pc w a in
        Fig4.mean_link_error w r
      in
      total_ind := !total_ind +. err Fig4.Independence;
      total_cc := !total_cc +. err Fig4.Correlation_complete)
    seeds;
  check_bool "CC < Independence under correlation (seed average)" true
    (!total_cc < !total_ind)

let test_fig4_complete_uses_fewer_equations () =
  (* §5.4: the baselines "create a significantly larger number of
     equations than ours". *)
  let w = prepare ~topology:W.Sparse ~seed:5 () in
  let cc, _ = Fig4.run_pc w Fig4.Correlation_complete in
  let ch, _ = Fig4.run_pc w Fig4.Correlation_heuristic in
  check_bool "at scale, heuristic forms far more equations" true
    (ch.Tomo.Pc_result.n_rows > 2 * cc.Tomo.Pc_result.n_rows)

let test_fig4_cdf_monotone () =
  let curves = Fig4.run_cdf ~scale:W.Small ~seed:3 ~steps:10 in
  check_int "three curves" 3 (List.length curves);
  List.iter
    (fun (_, curve) ->
      let ys = List.map snd curve in
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b +. 1e-9 && mono rest
        | _ -> true
      in
      check_bool "monotone" true (mono ys);
      check_bool "ends at 1" true
        (abs_float (List.nth ys (List.length ys - 1) -. 1.0) < 1e-9))
    curves

let test_fig4_subsets_scored () =
  let cells = Fig4.run_subsets ~scale:W.Small ~seed:3 in
  check_int "brite and sparse" 2 (List.length cells);
  List.iter
    (fun (label, c) ->
      check_bool (label ^ " scored subsets") true (c.Fig4.n_subsets_scored > 0);
      check_bool (label ^ " link mae range") true
        (c.Fig4.links_mae >= 0.0 && c.Fig4.links_mae <= 1.0);
      check_bool (label ^ " subset mae range") true
        (c.Fig4.subsets_mae >= 0.0 && c.Fig4.subsets_mae <= 1.0))
    cells

(* ------------------------------------------------------------------ *)
(* Ablations & averaging                                               *)
(* ------------------------------------------------------------------ *)

module Ablation = Tomo_experiments.Ablation

let test_ablation_subset_sweep () =
  let rows =
    Ablation.subset_size_sweep ~scale:W.Small ~seed:3 ~sizes:[ 1; 2; 3 ]
  in
  check_int "three rows" 3 (List.length rows);
  (* A larger subset budget can only add unknowns, never remove them. *)
  let vars = List.map (fun r -> r.Ablation.n_vars) rows in
  (match vars with
  | [ a; b; c ] ->
      check_bool "vars grow with budget" true (a <= b && b <= c)
  | _ -> Alcotest.fail "unexpected");
  List.iter
    (fun (r : Ablation.subset_row) ->
      check_bool "mae in range" true
        (r.Ablation.links_mae >= 0.0 && r.Ablation.links_mae <= 1.0))
    rows

let test_ablation_probe_sweep () =
  let rows =
    Ablation.probe_sweep ~scale:W.Small ~seed:3 ~budgets:[ 800; 50 ]
  in
  match rows with
  | [ ideal; heavy; light ] ->
      check_bool "ideal has no flips" true
        (ideal.Ablation.status_flip_frac = 0.0);
      check_bool "fewer probes flip more statuses" true
        (heavy.Ablation.status_flip_frac < light.Ablation.status_flip_frac);
      check_bool "fewer probes, larger error" true
        (heavy.Ablation.links_mae <= light.Ablation.links_mae +. 0.02)
  | _ -> Alcotest.fail "expected ideal + two budgets"

let test_ablation_interval_sweep () =
  let rows =
    Ablation.interval_sweep ~scale:W.Small ~seed:3 ~lengths:[ 60; 900 ]
  in
  match rows with
  | [ short; long ] ->
      check_int "t recorded" 60 short.Ablation.t_intervals;
      check_bool "longer experiment at least as accurate" true
        (long.Ablation.links_mae <= short.Ablation.links_mae +. 0.01)
  | _ -> Alcotest.fail "expected two rows"

let test_fig3_seed_average_identity () =
  (* Averaging over a single seed must equal the plain run. *)
  let single = Fig3.run ~scale:W.Small ~seed:4 in
  let averaged = Fig3.run_averaged ~scale:W.Small ~seeds:[ 4 ] in
  List.iter2
    (fun (r : Fig3.row) (r' : Fig3.row) ->
      List.iter2
        (fun (_, c) (_, c') ->
          if abs_float (c.Fig3.detection -. c'.Fig3.detection) > 1e-12 then
            Alcotest.fail "averaged run differs from single run")
        r.Fig3.cells r'.Fig3.cells)
    single averaged

let test_fig4_seed_average_in_range () =
  let rows =
    Fig4.run_mae_averaged ~topology:W.Brite ~scale:W.Small ~seeds:[ 1; 2 ]
  in
  List.iter
    (fun (r : Fig4.mae_row) ->
      List.iter
        (fun (_, v) ->
          if v < 0.0 || v > 1.0 then Alcotest.fail "averaged mae range")
        r.Fig4.cells)
    rows

(* ------------------------------------------------------------------ *)
(* Peer report                                                         *)
(* ------------------------------------------------------------------ *)

module Peer_report = Tomo_experiments.Peer_report

let test_peer_report_build () =
  let w = prepare ~seed:7 () in
  let _, engine = Tomo.Correlation_complete.compute w.W.model w.W.obs in
  let peers =
    Peer_report.build ~model:w.W.model ~engine ~overlay:w.W.overlay
      ~resamples:0
      ~rng:(Tomo_util.Rng.create 1)
  in
  check_bool "some peers reported" true (List.length peers > 0);
  (* Sorted by expected congestion, descending; CI collapses without
     resamples; identifiable counts bounded by link counts. *)
  let rec sorted = function
    | (a : Peer_report.peer) :: (b :: _ as rest) ->
        a.Peer_report.expected_congested >= b.Peer_report.expected_congested
        && sorted rest
    | _ -> true
  in
  check_bool "sorted" true (sorted peers);
  List.iter
    (fun (p : Peer_report.peer) ->
      check_bool "ci = point without bootstrap" true
        (abs_float (p.Peer_report.ci_lo -. p.Peer_report.expected_congested)
         < 1e-9);
      check_bool "identifiable <= links" true
        (p.Peer_report.n_identifiable <= p.Peer_report.n_links))
    peers

let test_peer_report_ci_brackets () =
  let w = prepare ~seed:7 () in
  let _, engine = Tomo.Correlation_complete.compute w.W.model w.W.obs in
  let peers =
    Peer_report.build ~model:w.W.model ~engine ~overlay:w.W.overlay
      ~resamples:15
      ~rng:(Tomo_util.Rng.create 1)
  in
  List.iter
    (fun (p : Peer_report.peer) ->
      check_bool "lo <= hi" true (p.Peer_report.ci_lo <= p.Peer_report.ci_hi))
    peers

let test_peer_report_render () =
  let w = prepare ~seed:7 () in
  let _, engine = Tomo.Correlation_complete.compute w.W.model w.W.obs in
  let peers =
    Peer_report.build ~model:w.W.model ~engine ~overlay:w.W.overlay
      ~resamples:0
      ~rng:(Tomo_util.Rng.create 1)
  in
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Peer_report.render ppf ~top:5 peers;
  Format.pp_print_flush ppf ();
  check_bool "renders header" true (contains (Buffer.contents buf) "peer AS")

(* ------------------------------------------------------------------ *)
(* Render                                                              *)
(* ------------------------------------------------------------------ *)

let render_to_string f =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  f ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let test_render_table2 () =
  let s = render_to_string Render.table2 in
  check_bool "mentions homogeneity" true
    (contains s "Homogeneity");
  check_bool "mentions identifiability++" true
    (contains s "Identifiability++")

let test_render_fig3_smoke () =
  let rows =
    [
      {
        Fig3.label = "Test";
        cells =
          List.map
            (fun a -> (a, { Fig3.detection = 0.5; false_positive = 0.1 }))
            Fig3.algorithms;
      };
    ]
  in
  let s = render_to_string (fun ppf -> Render.fig3 ppf rows) in
  check_bool "has detection header" true
    (contains s "Detection Rate");
  check_bool "has scenario row" true (contains s "Test")

let () =
  Alcotest.run "experiments"
    [
      ( "workload",
        [
          Alcotest.test_case "shapes" `Quick test_workload_shapes;
          Alcotest.test_case "truth in range" `Quick
            test_workload_truth_range;
          Alcotest.test_case "correlation sets partition" `Quick
            test_workload_model_corr_sets_partition;
          Alcotest.test_case "deterministic" `Quick
            test_workload_deterministic;
        ] );
      ( "fig3",
        [
          Alcotest.test_case "cells in range" `Slow test_fig3_cells_in_range;
          Alcotest.test_case "paper scenario grid" `Quick
            test_fig3_scenarios_cover_paper;
          Alcotest.test_case "sparse topologies degrade inference" `Slow
            test_fig3_sparse_degrades;
          Alcotest.test_case "medium seed 5 completes" `Slow
            test_fig3_wide_congestion_completes;
        ] );
      ( "fig4",
        [
          Alcotest.test_case "marginals in range" `Slow test_fig4_pc_in_range;
          Alcotest.test_case "correlation beats independence" `Slow
            test_fig4_correlation_beats_independence;
          Alcotest.test_case "minimal equation count" `Slow
            test_fig4_complete_uses_fewer_equations;
          Alcotest.test_case "error CDF monotone" `Slow test_fig4_cdf_monotone;
          Alcotest.test_case "subset probabilities scored" `Slow
            test_fig4_subsets_scored;
        ] );
      ( "ablation",
        [
          Alcotest.test_case "subset-size sweep" `Slow
            test_ablation_subset_sweep;
          Alcotest.test_case "probe sweep" `Slow test_ablation_probe_sweep;
          Alcotest.test_case "interval sweep" `Slow
            test_ablation_interval_sweep;
          Alcotest.test_case "fig3 seed-average identity" `Slow
            test_fig3_seed_average_identity;
          Alcotest.test_case "fig4 seed-average range" `Slow
            test_fig4_seed_average_in_range;
        ] );
      ( "peer_report",
        [
          Alcotest.test_case "build" `Slow test_peer_report_build;
          Alcotest.test_case "bootstrap CIs" `Slow
            test_peer_report_ci_brackets;
          Alcotest.test_case "render" `Slow test_peer_report_render;
        ] );
      ( "render",
        [
          Alcotest.test_case "table 2" `Quick test_render_table2;
          Alcotest.test_case "fig3 smoke" `Quick test_render_fig3_smoke;
        ] );
    ]

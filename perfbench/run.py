#!/usr/bin/env python3
"""End-to-end benchmark of the tomography system, with per-layer attribution.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/harness.exe with dune,
runs the workload in a fresh process (so set-up time and peak memory
belong to that workload alone), checks its outputs, prints every metric
by name with its unit and sample count, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics, from an untraced run.
--trace 1 reports the per-layer metrics, from a traced run plus a short
untraced reference run that gives the tracing overhead.

Workloads (all closed loop, job counts pinned in the harness):
  fig3-medium    Fig. 3 at medium scale: 5 scenarios x 3 Boolean-inference
                 algorithms x 400 intervals, one domain.
  fig4-paper     Fig. 4(a)+(b) at paper scale: Brite and Sparse x 3
                 scenarios x 3 probability-computation algorithms, one domain.
  stream-replay  a 1200-interval medium-scale trace fed tick by tick through
                 Stream.Engine.ingest, window 100, one domain (run by hand;
                 not declared in BENCHMARK.json).
  ingest-2peer   two socket peers stream that trace into one Net.Hub
                 (window 100, Block policy, 2-domain pool).

Each run measures K distinct inputs drawn from --seed, then repeats them
while another pass fits in --seconds; timings are per-input medians, so a
faster program repeats more but never measures different inputs.  The
untraced single-domain workloads scale their times by the host's speed,
measured between the units of work (harness calib.ml, README.md).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import stats  # noqa: E402

# BENCHMARK.json declares all but stream-replay.  That one measures the
# engine work ingest-2peer does, on one domain; it stays runnable by hand
# and is the single-engine reference of par.peer_speedup, but declaring it
# would shorten the runs of the others, which the host's noise needs long.
WORKLOADS = ("fig3-medium", "fig4-paper", "stream-replay", "ingest-2peer")
HARNESS = os.path.join("_build", "default", "perfbench", "harness.exe")
DEADLINE_S = 170.0
# Timings are scaled to the host speed at which one calibration chunk
# (harness calib.ml) takes this long.
REF_CHUNK_S = 0.015

# End-to-end metrics, reported by every workload (--trace 0).
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
)

# Per-layer metrics (--trace 1): name, unit, and the end-to-end metric
# each should move, on which workload.  Values are per pass of the
# workload; a layer the workload does not exercise reads 0.  The stream
# layers' per-tick cost also shows as ticks_per_s and tick_ms on
# stream-replay, run by hand.
PER_LAYER = (
    ("topology.generate_s", "s", "setup_s on fig4-paper"),
    ("netsim.run_s", "s", "setup_s on fig4-paper"),
    ("netsim.truth_s", "s", "setup_s on fig4-paper"),
    ("netsim.intervals", "count", "setup_s on fig4-paper"),
    ("algorithm1.select_s", "s", "wall_s on fig4-paper, ops_per_s on ingest-2peer"),
    ("algorithm1.selects", "count", "wall_s on fig4-paper, ops_per_s on ingest-2peer"),
    ("algorithm1.accept_ratio", "ratio", "wall_s on fig4-paper"),
    ("independence_pc.compute_s", "s", "wall_s on fig4-paper"),
    ("correlation_heuristic.compute_s", "s", "wall_s on fig4-paper"),
    ("correlation_complete.compute_s", "s", "wall_s on fig4-paper"),
    ("prob_engine.solve_s", "s", "wall_s on fig4-paper, ops_per_s on ingest-2peer"),
    ("prob_engine.solves", "count", "wall_s on fig4-paper, ops_per_s on ingest-2peer"),
    ("cgls.iterations", "count", "wall_s on fig4-paper, ops_per_s on ingest-2peer"),
    ("cgls.iterations_per_solve", "count", "wall_s on fig4-paper, ops_per_s on ingest-2peer"),
    ("bayesian.infer_correlation_s", "s", "ops_per_s and wall_s on fig3-medium"),
    ("bayesian.infer_correlation_calls", "count", "ops_per_s on fig3-medium"),
    ("bayesian.infer_correlation_ms.p50", "ms", "ops_per_s on fig3-medium"),
    ("bayesian.infer_correlation_ms.p99", "ms", "ops_per_s on fig3-medium"),
    ("bayesian.infer_independence_s", "s", "ops_per_s on fig3-medium"),
    ("sparsity.infer_s", "s", "ops_per_s on fig3-medium"),
    ("stream.ingest_s", "s", "ops_per_s on ingest-2peer"),
    ("stream.reselects", "count", "ops_per_s on ingest-2peer"),
    ("stream.stage_solve_s", "s", "ops_per_s on ingest-2peer"),
    ("stream.stage_reselect_s", "s", "ops_per_s on ingest-2peer"),
    ("stream.stage_ingest_s", "s", "ops_per_s on ingest-2peer"),
    ("net.frames", "count", "ops_per_s on ingest-2peer"),
    ("net.bytes", "B", "ops_per_s on ingest-2peer"),
    ("net.peers_dropped", "count", "ops_per_s on ingest-2peer"),
    ("net.send_blocked_s", "s", "ops_per_s on ingest-2peer"),
    ("pool.task_wait_s", "s", "ops_per_s on ingest-2peer"),
    ("pool.batch_s", "s", "ops_per_s on ingest-2peer"),
    ("pool.parallel_batches", "count", "ops_per_s on ingest-2peer"),
    ("par.peer_speedup", "ratio", "ops_per_s on ingest-2peer"),
    ("trace.untraced_frac", "ratio", "every workload: share of wall_s no span covers"),
    ("trace.overhead_frac", "ratio", "every workload: traced over untraced wall_s, minus 1"),
)

# The workload-specific end-to-end figures are printed alongside, not in
# the JSON line: that carries only metrics every workload has and that
# stay steady across seeds.  Accuracy does not: it is a property of each
# seed's simulated input, and between inputs it moves by more than any
# bound that would still catch a regression.
OPS_NAME = {
    "fig3-medium": "intervals_per_s",
    "fig4-paper": "cells_per_s",
    "stream-replay": "ticks_per_s",
    "ingest-2peer": "ticks_per_s",
}


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def remaining(start):
    left = DEADLINE_S - (time.monotonic() - start)
    if left <= 0:
        fail("out of time", 3)
    return left


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the repository root: no dune-project or lib/ here")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/harness.exe"],
            capture_output=True, text=True, env=env, timeout=900)
    except FileNotFoundError:
        fail("dune not found")
    except subprocess.TimeoutExpired:
        fail("build timed out", 3)
    if r.returncode != 0 or not os.path.isfile(HARNESS):
        sys.stderr.write(r.stdout + r.stderr)
        fail("build failed")


def harness(start, scratch, workload, seed, seconds, trace, instances=None):
    out = os.path.join(scratch, "%s-%d.json" % (workload, trace))
    cmd = [HARNESS, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(trace),
           "--out", out, "--scratch", scratch]
    if instances:
        cmd += ["--instances", str(instances)]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=remaining(start))
    except subprocess.TimeoutExpired:
        fail("%s did not finish in time" % workload, 3)
    if r.returncode != 0:
        sys.stderr.write(r.stdout + r.stderr)
        fail("harness exited with code %d" % r.returncode)
    with open(out) as f:
        return json.load(f)


def by_instance(raw):
    groups = {}
    for p in raw["passes"]:
        groups.setdefault(p["instance"], []).append(p)
    return [groups[k] for k in sorted(groups)]


def end_to_end(raw):
    """The end-to-end figures of one untraced run, keyed by name:
    (value, unit, sample count).  Times are scaled to the reference host
    speed (harness calib.ml); the measured ones are printed beside them.
    Peak memory is the median over each input's first pass: the heap a
    process keeps grows over its passes, and the number of passes grows
    with the host's speed."""
    for p in raw["passes"]:
        p["setup_ref_s"], p["work_ref_s"] = stats.scaled_times(p["segments"], REF_CHUNK_S)
    groups = by_instance(raw)

    def wall(g, suffix):
        return statistics.median([p["setup" + suffix] + p["work" + suffix] for p in g])

    walls = [wall(g, "_ref_s") for g in groups]
    work = sum(statistics.median([p["work_ref_s"] for p in g]) for g in groups)
    ops = sum(g[0]["ops"] for g in groups)
    n = len(raw["passes"])
    chunks = raw["calib_chunk_s"]
    e = {
        "setup_s": (statistics.median([p["setup_ref_s"] for p in raw["passes"]]), "s", n),
        "wall_s": (sum(walls) / len(walls), "s", n),
        "setup_measured_s": (statistics.median([p["setup_s"] for p in raw["passes"]]), "s", n),
        "wall_measured_s": (sum(wall(g, "_s") for g in groups) / len(groups), "s", n),
        "peak_rss_mb": (statistics.median([g[0]["rss_kb"] for g in groups]) / 1024.0,
                        "MB", len(groups)),
        "ops_per_s": (ops / work, "1/s", n),
        "estimate_error": (raw["accuracy"]["estimate_error"], "prob", len(groups)),
        "failed_frac": (raw["failed"] / raw["attempted"], "ratio", raw["attempted"]),
        OPS_NAME[raw["workload"]]: (ops / work, "1/s", n),
    }
    if chunks:
        e["calib_chunk_ms"] = (statistics.median(chunks) * 1e3, "ms", len(chunks))
    for k, v in raw["accuracy"].items():
        if k != "estimate_error":
            e[k] = (v, "prob", len(groups))
    ticks = stats.summarize(raw["tick_ms"])
    if ticks["n"]:
        e["tick_ms.p50"] = (ticks["median"], "ms", ticks["n"])
    if ticks["tail"] is not None:
        e["tick_ms.p%g" % ticks["tail_level"]] = (ticks["tail"], "ms", ticks["n"])
    return e


def instance0_wall(raw):
    return statistics.median(
        [p["setup_s"] + p["work_s"] for p in raw["passes"] if p["instance"] == 0])


def per_layer(traced, reference, replay_reference):
    passes = len(traced["passes"])
    spans = traced["spans"]
    totals = stats.span_totals(spans)
    c, h = traced["counters"], traced["histogram_sums"]
    x, lib = traced["extra"], traced["lib_spans"]

    def span_s(name):
        return totals.get(name, {}).get("total", 0.0) / passes

    def per_pass(v):
        return v / passes

    def ratio(a, b):
        return a / b if b else 0.0

    bc_spans = totals.get("bayesian.infer_correlation", {"count": 0, "durations": []})
    bc_ms = sorted(d * 1e3 for d in bc_spans["durations"])
    v = {
        "topology.generate_s": span_s("topology.generate"),
        "netsim.run_s": span_s("netsim.run"),
        "netsim.truth_s": span_s("netsim.truth"),
        "netsim.intervals": per_pass(c.get("sim_intervals", 0)),
        "algorithm1.select_s": per_pass(lib.get("algorithm1.select", 0.0)),
        "algorithm1.selects": per_pass(c.get("alg1_selections", 0)),
        "algorithm1.accept_ratio": ratio(c.get("equations_formed", 0),
                                         c.get("alg1_candidate_rows_materialized", 0)),
        "independence_pc.compute_s": span_s("independence_pc.compute"),
        "correlation_heuristic.compute_s": span_s("correlation_heuristic.compute"),
        "correlation_complete.compute_s": span_s("correlation_complete.compute"),
        "prob_engine.solve_s": per_pass(lib.get("prob_engine.solve", 0.0)),
        "prob_engine.solves": per_pass(c.get("prob_engine_solves", 0)),
        "cgls.iterations": per_pass(c.get("cgls_iterations", 0)),
        "cgls.iterations_per_solve": ratio(c.get("cgls_iterations", 0), c.get("cgls_solves", 0)),
        "bayesian.infer_correlation_s": span_s("bayesian.infer_correlation"),
        "bayesian.infer_correlation_calls": per_pass(bc_spans["count"]),
        "bayesian.infer_correlation_ms.p50": statistics.median(bc_ms) if bc_ms else 0.0,
        "bayesian.infer_correlation_ms.p99": (bc_ms and stats.tail(bc_ms, 99.0)) or 0.0,
        "bayesian.infer_independence_s": span_s("bayesian.infer_independence"),
        "sparsity.infer_s": span_s("sparsity.infer"),
        # stream-replay calls Engine.ingest itself; in ingest-2peer the hub
        # does, and the engine's own whole-tick histogram stands in.
        "stream.ingest_s": span_s("stream.ingest") or per_pass(h.get("stream_tick_s", 0.0)),
        "stream.reselects": per_pass(x.get("stream.reselects", c.get("stream_reselects", 0))),
        "stream.stage_solve_s": per_pass(h.get("stream_stage_solve_s", 0.0)),
        "stream.stage_reselect_s": per_pass(h.get("stream_stage_reselect_s", 0.0)),
        "stream.stage_ingest_s": per_pass(h.get("stream_stage_ingest_s", 0.0)),
        "net.frames": per_pass(x.get("net.frames", 0.0)),
        "net.bytes": per_pass(x.get("net.bytes", 0.0)),
        "net.peers_dropped": per_pass(x.get("net.peers_dropped", 0.0)),
        "net.send_blocked_s": per_pass(x.get("net.send_blocked_s", 0.0)),
        "pool.task_wait_s": per_pass(h.get("pool_task_wait_s", 0.0)),
        "pool.batch_s": per_pass(h.get("pool_batch_s", 0.0)),
        "pool.parallel_batches": per_pass(c.get("pool_parallel_batches", 0)),
        "par.peer_speedup": 0.0,
        "trace.untraced_frac": stats.untraced_fraction(spans),
        "trace.overhead_frac": instance0_wall(traced) / instance0_wall(reference) - 1.0,
    }
    if replay_reference is not None:
        v["par.peer_speedup"] = (end_to_end(reference)["ops_per_s"][0]
                                 / end_to_end(replay_reference)["ops_per_s"][0])
    return v, totals


def print_checks(raw):
    print("output digest (%%.17g values): %s" % raw["digest"])
    for row in raw["rows"]:
        print("  " + row)
    for f in raw["failures"]:
        print("FAILED: " + f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    build()
    start = time.monotonic()
    scratch = os.path.join(".perfbench_out",
                           "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(scratch)
    try:
        if args.trace == 0:
            result = harness(start, scratch, args.workload, args.seed, args.seconds, 0)
            runs = [result]
        else:
            t0 = time.monotonic()
            reference = harness(start, scratch, args.workload, args.seed, 0, 0, instances=1)
            replay_reference = None
            if args.workload == "ingest-2peer":
                replay_reference = harness(start, scratch, "stream-replay", args.seed, 0, 0,
                                           instances=1)
            left = max(0.0, args.seconds - (time.monotonic() - t0))
            result = harness(start, scratch, args.workload, args.seed, left, 1)
            runs = [reference, replay_reference, result]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(".perfbench_out")
        except OSError:
            pass

    print("workload %s, seed %d, %d passes over %d inputs, trace %d"
          % (args.workload, args.seed, len(result["passes"]),
             len(by_instance(result)), args.trace))
    print_checks(result)
    if args.trace == 0:
        e = end_to_end(result)
        print("%-28s %16s %-6s %s" % ("end-to-end metric", "value", "unit", "samples"))
        for name in sorted(e):
            value, unit, n = e[name]
            print("%-28s %16.6g %-6s n=%d" % (name, value, unit, n))
        metrics = {name: {"value": e[name][0], "unit": unit} for name, unit in END_TO_END}
    else:
        v, totals = per_layer(result, reference, replay_reference)
        print("%-36s %14s %-6s %s" % ("per-layer metric", "value", "unit", "should move"))
        for name, unit, moves in PER_LAYER:
            print("%-36s %14.6g %-6s %s" % (name, v[name], unit, moves))
        print("harness spans (per pass): name, calls, total s, self s")
        passes = len(result["passes"])
        for name in sorted(totals, key=lambda k: -totals[k]["total"]):
            t = totals[name]
            print("  %-34s %10.1f %10.4f %10.4f" % (name, t["count"] / passes,
                                                    t["total"] / passes, t["self"] / passes))
        metrics = {name: {"value": v[name], "unit": unit} for name, unit, _ in PER_LAYER}
    runs = [r for r in runs if r is not None]
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()

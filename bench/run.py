"""boxdyn benchmark: time and memory to a certified Morse graph.

    python3 bench/run.py --workload leslie-2e14-index --seed 1 \
        --seconds 20 --trace 0

Run from the root of a boxdyn checkout; the package is imported from
its ``src`` directory.  The run repeats whole rounds of the workload
while the next round still fits in ``--seconds`` (at least one round),
checks the last round's outputs and prints one JSON object as the last
line of standard output.

On a shared host the speed of a core changes by up to a half, for
seconds or minutes at a time, so a plain wall time does not repeat from
run to run.  Each step of a round (a box map, a condensation, one node's
Conley index, ...) is therefore bracketed by a fixed calibration loop,
and timed in units of it.  ``analysis_s`` sums, over the steps, the
median over the rounds of that ratio, times CAL_REF_S: the seconds the
round takes on a core that runs the calibration loop in CAL_REF_S.
``setup_s`` is normalised the same way.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced rounds, reports the per-layer metrics of the fastest
traced round and writes every traced round's spans to
``.bench_runs/traces/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one thread: set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(HERE))

try:
    import boxdyn
except ImportError as exc:
    sys.exit(f"bench: cannot import boxdyn from {ROOT / 'src'}: {exc}")
if not Path(boxdyn.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"bench: boxdyn was imported from {boxdyn.__file__}, "
             f"not from {ROOT / 'src'}")

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Stages  # noqa: E402

SETUP_SAMPLES = 7
RUNS_DIR = ROOT / ".bench_runs"

# seconds the calibration loop takes on a fast core of the reference host
# (Xeon vCPU, Python 3.11); it sets the scale of the normalised times
CAL_REF_S = 0.010
_CAL_KEYS = np.random.default_rng(0).random(100_000)


def calibrate() -> float:
    """Seconds of a fixed mix of interpreter and numpy work, about 10 ms."""
    t0 = time.perf_counter()
    counts = {}
    for i in range(60_000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
    np.sort(_CAL_KEYS)
    return time.perf_counter() - t0


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_round(workload, inputs, outdir, calibrate=None):
    """Run one round; returns (wall seconds, Stages, result)."""
    stages = Stages(calibrate)
    t0 = time.perf_counter()
    result = workload.round(inputs, outdir, stages)
    return time.perf_counter() - t0, stages, result


def setup_probe(args, tag) -> float:
    """Seconds from starting a fresh process to its first pipeline call,
    in units of the calibration loop run just before and just after."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-only", tag]
    cal_before = calibrate()
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as p:
        line = p.stdout.readline()
        elapsed = time.perf_counter() - t0
        p.stdout.read()
        code = p.wait()
    if code != 0 or line.strip() != "ready":
        sys.exit(f"bench: set-up probe failed with exit code {code}")
    return elapsed / ((cal_before + calibrate()) / 2)


def metric(value, unit):
    return {"value": value, "unit": unit}


def layer_metrics(tracer, traced_s, plain_s, first) -> dict:
    """Per-layer metrics of one traced round.  first is the run's first
    traced round: ru_maxrss never falls, so only its reading after
    chain_map is the peak of that call."""
    self_s = tracer.self_times()

    def t(name):
        return metric(self_s.get(name, 0.0), "s")

    def c(name, key):
        return metric(tracer.count_sum(name, key), "count")

    return {
        "oracles.image_rects_s": t("oracles.image_rects"),
        "outer_approx.build_boxmap_s": t("outer_approx.build_boxmap"),
        "outer_approx.edges": c("outer_approx.build_boxmap", "edges"),
        "graph_dynamics.condensation_s": t("graph_dynamics.condensation"),
        "graph_dynamics.morse_graph_s": t("graph_dynamics.morse_graph"),
        "graph_dynamics.downset_boxes": c("graph_dynamics.morse_graph",
                                          "downset_boxes"),
        "graph_dynamics.morse_nodes": c("graph_dynamics.morse_graph",
                                        "morse_nodes"),
        "graph_dynamics.index_pair_s": t("graph_dynamics.index_pair"),
        "graph_dynamics.p1_boxes": c("graph_dynamics.index_pair", "p1_boxes"),
        "homology.pair_complex_s": t("homology.pair_complex"),
        "homology.cells": c("homology.pair_complex", "cells"),
        "homology.homology_basis_s": t("homology.homology_basis"),
        "homology.chain_map_s": t("homology.chain_map"),
        "homology.chain_map_rss_mb": metric(
            first.count_max("homology.chain_map", "rss_mb"), "MB"),
        "homology.induced_map_s": t("homology.induced_map"),
        "conley.shift_class_s": t("conley.shift_class"),
        "conley.shift_invariant_factors_s":
            t("conley.shift_invariant_factors"),
        "conley.conley_index_s": t("conley.conley_index"),
        "conley.betti_sum": c("homology.homology_basis", "betti_sum"),
        "compare.project_s": t("compare.project"),
        "compare.check_epimorphism_s": t("compare.check_epimorphism"),
        "cli.load_trajectory_data_s": t("cli.load_trajectory_data"),
        "cli.write_outputs_s": t("cli.write_outputs"),
        "cli.main_s": t("cli.main"),
        "trace.overhead_s": metric(traced_s - plain_s, "s"),
        "trace.uncovered_s": metric(traced_s - tracer.top_level_seconds(),
                                    "s"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=20260826)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", metavar="TAG",
                    help="set up, print 'ready' and exit (set-up probe)")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    run_dir = RUNS_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    if args.setup_only:
        workload.setup(args.seed, run_dir / args.setup_only)
        print("ready", flush=True)
        shutil.rmtree(run_dir, ignore_errors=True)
        return 0

    inputs = workload.setup(args.seed, run_dir)
    attempted = failed = 0
    times = []
    plain = []
    tracers = []
    setup_s = []
    started = time.perf_counter()
    while True:
        tracer = Tracer() if args.trace and len(times) % 2 == 0 else None
        result = None
        gc.collect()
        outdir = run_dir / f"r{len(times)}"
        if tracer is None:
            elapsed, stages, result = timed_round(workload, inputs, outdir,
                                                  calibrate)
            plain.append(stages)
        else:
            with tracer:
                elapsed, _, result = timed_round(workload, inputs, outdir)
            tracers.append((elapsed, tracer))
        times.append(elapsed)
        attempted += result.attempted
        failed += result.failed
        # set-up probes are spread over the run, between rounds
        due = len(setup_s) * args.seconds / SETUP_SAMPLES
        if not args.trace and time.perf_counter() - started >= due:
            setup_s.append(setup_probe(args, f"setup{len(setup_s)}"))
        done = sum(times) + statistics.median(times) > args.seconds
        if done and (len(times) >= 2 or not args.trace):
            break
    while not args.trace and len(setup_s) < SETUP_SAMPLES:
        setup_s.append(setup_probe(args, f"setup{len(setup_s)}"))

    if args.trace:
        # untraced rounds, less the time their calibration loops took
        plain_times = [times[k] - stages.calibration_s
                       for k, stages in zip(range(1, len(times), 2), plain)]
        traced_s, tracer = min(tracers, key=lambda t: t[0])
        metrics = layer_metrics(tracer, traced_s, min(plain_times),
                                tracers[0][1])
        trace_path = RUNS_DIR / "traces" / f"{run_dir.name}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "untraced_round_s": plain_times,
            "traced_rounds": [{"seconds": t, "spans": tr.spans}
                              for t, tr in tracers]}, indent=1))
    else:
        # each step's median time in calibration units, summed over the
        # steps of a round
        ratios = [[s / c for s, c in zip(st.seconds, st.cal_seconds)]
                  for st in plain]
        units = sum(statistics.median(col)
                    for col in zip(*ratios, strict=True))
        metrics = {"analysis_s": metric(units * CAL_REF_S, "s"),
                   "peak_rss_mb": metric(rss_mb(), "MB")}
        wall_s = statistics.median(sum(st.seconds) for st in plain)
        cal_s = statistics.median(c for st in plain for c in st.cal_seconds)
        print(f"bench: {len(plain)} rounds; median wall time of a round's "
              f"steps {wall_s:.4f} s; median calibration {cal_s:.5f} s",
              file=sys.stderr)

    fails = workload.check(inputs, result.outputs)
    for msg in fails:
        print(f"check failed: {msg}", file=sys.stderr)
    if not args.trace:
        metrics["setup_s"] = metric(statistics.median(setup_s) * CAL_REF_S,
                                    "s")
    shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"correct": not fails, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: inputs made from a seed, one round each,
and the checks that run on a round's outputs.

A round runs its steps through a Stages object, which times each step.
Every call into boxdyn goes through a module attribute (``gd.condensation``
and so on), so a Tracer that patches those attributes sees it.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from boxdyn import cli, compare, conley, graph_dynamics as gd, grid, oracles
from boxdyn import outer_approx as oa
from boxdyn.errors import BoxdynError

LESLIE_LOWER = (0.0, 0.0)
LESLIE_UPPER = (90.0, 70.0)
THETA = (23.5, 23.5)
PRIME = 5

INDEX_DEPTHS, INDEX_RHO = (7, 7), 0.03
NU_FINE = ((8, 7), 0.03)
NU_COARSE = ((7, 7), 0.1)
DATA_DEPTHS, DATA_RHO, DATA_LIPSCHITZ = (4, 5), 0.1, 34.0
DATA_SEEDS, DATA_STEPS = 16, 10


def leslie_map(x) -> np.ndarray:
    """The true Leslie map, in floating point."""
    s = x[0] + x[1]
    return np.array([(THETA[0] * x[0] + THETA[1] * x[1]) * math.exp(-0.1 * s),
                     0.7 * x[0]])


def leslie_fixed_point() -> np.ndarray:
    """Interior fixed point: x2 = 0.7 x1 and 1 = 1.7 theta exp(-0.17 x1)."""
    x1 = math.log(1.7 * THETA[0]) / 0.17
    return np.array([x1, 0.7 * x1])


def trajectory_pairs(seed: int):
    """DATA_SEEDS orbits of DATA_STEPS steps from seeded starting points."""
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for _ in range(DATA_SEEDS):
        x = np.array([rng.uniform(LESLIE_LOWER[0], LESLIE_UPPER[0]),
                      rng.uniform(LESLIE_LOWER[1], LESLIE_UPPER[1])])
        for _ in range(DATA_STEPS):
            y = leslie_map(x)
            xs.append(x)
            ys.append(y)
            x = y
    return np.array(xs), np.array(ys)


class Stages:
    """Wall seconds of each step of a round, in the order the steps ran.

    Given a calibrate callable (one that times a fixed piece of work), each
    step is bracketed by two calls to it: cal_seconds holds the mean of the
    two readings for each step, and calibration_s the time they took.
    """

    def __init__(self, calibrate=None):
        self.seconds = []
        self.cal_seconds = []
        self.calibration_s = 0.0
        self._calibrate = calibrate

    def _reading(self) -> float:
        t0 = time.perf_counter()
        reading = self._calibrate()
        self.calibration_s += time.perf_counter() - t0
        return reading

    def run(self, fn, *args, **kwargs):
        before = self._reading() if self._calibrate else None
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds.append(time.perf_counter() - t0)
            if self._calibrate:
                self.cal_seconds.append((before + self._reading()) / 2)


@dataclass
class Round:
    """Outcome of one timed round: operation counts and what checks read."""

    attempted: int
    failed: int
    outputs: dict = field(default_factory=dict)


def _graph(mg):
    """Plain view of a Morse graph: regions, order and labels."""
    labels = [mg.index_of[q].labels() if q in mg.index_of else None
              for q in mg.nodes]
    return {"regions": list(mg.regions), "order": set(mg.order),
            "labels": labels, "shape": mg.grid.shape}


def _boxmap(bm):
    return {"jmin": bm.jmin, "jmax": bm.jmax, "exterior": bm.exterior,
            "shape": bm.grid.shape}


def leslie_boxmap(depths, rho):
    space = grid.PhaseSpace(LESLIE_LOWER, LESLIE_UPPER)
    g = grid.CubicalGrid(space, depths)
    return oa.build_boxmap(g, oracles.LeslieOracle(THETA), rho)


def leslie_morse_graph(depths, rho, stages: Stages):
    bm = stages.run(leslie_boxmap, depths, rho)
    cond = stages.run(gd.condensation, bm)
    return bm, cond, stages.run(gd.morse_graph, cond)


def leslie_setup(seed: int, workdir: Path) -> dict:
    """The Leslie inputs are fixed; the seed picks the checks' orbits."""
    return {"seed": seed}


# ---------------------------------------------------------------------------
# leslie-2e14-index


def index_round(inputs: dict, outdir: Path, stages: Stages) -> Round:
    bm, cond, mg = leslie_morse_graph(INDEX_DEPTHS, INDEX_RHO, stages)
    failed = 0
    for q, cid in enumerate(mg.component_ids):
        try:
            mg.index_of[q] = stages.run(conley.conley_index, bm, cond, cid,
                                        PRIME)
        except BoxdynError:
            failed += 1
    return Round(1 + len(mg.nodes), failed,
                 {"boxmap": _boxmap(bm), "graph": _graph(mg)})


def index_check(inputs: dict, out: dict) -> list:
    # imported here, so that set-up time holds no import the checks need
    from checks import check_leslie_labels, check_morse_graph, edge_matrix
    bm, mg = out["boxmap"], out["graph"]
    adj = edge_matrix(bm["jmin"], bm["jmax"], bm["exterior"], bm["shape"])
    fails, _ = check_morse_graph(adj, mg["regions"], mg["order"], "index")
    labelled = [q for q, lab in enumerate(mg["labels"]) if lab is not None]
    if len(labelled) == len(mg["regions"]):
        fails += check_leslie_labels(mg["regions"], mg["order"],
                                     mg["labels"], mg["shape"],
                                     inputs["seed"])
    return fails


# ---------------------------------------------------------------------------
# leslie-2e15-nu


def nu_round(inputs: dict, outdir: Path, stages: Stages) -> Round:
    fine_bm, _, fine = leslie_morse_graph(*NU_FINE, stages)
    coarse_bm, _, coarse = leslie_morse_graph(*NU_COARSE, stages)
    nu = stages.run(compare.project, fine, coarse)
    report = stages.run(compare.check_epimorphism, nu, fine, coarse)
    claims = {"well_defined": nu.well_defined, "surjective": nu.surjective,
              "order_preserving": nu.order_preserving,
              "is_epimorphism": report["is_epimorphism"]}
    return Round(3, 0, {"fine_boxmap": _boxmap(fine_bm),
                        "fine": _graph(fine),
                        "coarse_boxmap": _boxmap(coarse_bm),
                        "coarse": _graph(coarse),
                        "assignment": dict(nu.assignment),
                        "claims": claims})


def nu_check(inputs: dict, out: dict) -> list:
    from checks import check_morse_graph, check_nu, edge_matrix
    fails = []
    downsets = {}
    for tag in ("fine", "coarse"):
        bm, mg = out[f"{tag}_boxmap"], out[tag]
        adj = edge_matrix(bm["jmin"], bm["jmax"], bm["exterior"],
                          bm["shape"])
        more, downsets[tag] = check_morse_graph(adj, mg["regions"],
                                                mg["order"], tag)
        fails += more
        del adj
    fine, coarse = out["fine"], out["coarse"]
    fails += check_nu(fine["regions"], fine["order"], fine["shape"],
                      downsets["coarse"], coarse["order"], coarse["shape"],
                      out["assignment"])
    fails += [f"nu: program reports {k} = False"
              for k, v in out["claims"].items() if not v]
    return fails


# ---------------------------------------------------------------------------
# data-2e9-cli


def data_setup(seed: int, workdir: Path, depths=DATA_DEPTHS) -> dict:
    xs, ys = trajectory_pairs(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / "pairs.txt"
    rows = [" ".join(repr(float(v)) for v in (*x, *y)) for x, y in zip(xs, ys)]
    path.write_text("trajectory-pairs v1\n" + "\n".join(rows) + "\n")
    return {"seed": seed, "xs": xs, "ys": ys, "samples": path,
            "depths": depths}


def data_round(inputs: dict, outdir: Path, stages: Stages) -> Round:
    domain = ",".join(f"{lo!r}:{hi!r}"
                      for lo, hi in zip(LESLIE_LOWER, LESLIE_UPPER))
    argv = ["analyze", "--domain", domain,
            "--depth", ",".join(map(str, inputs["depths"])),
            "--rho", repr(DATA_RHO), "--prime", str(PRIME),
            "--oracle", f"data:{inputs['samples']}:{DATA_LIPSCHITZ!r}",
            "--out", str(outdir)]
    with contextlib.redirect_stdout(sys.stderr):
        code = stages.run(cli.main, argv)
    return Round(1, int(code != 0), {"outdir": outdir, "code": code})


def data_check(inputs: dict, out: dict) -> list:
    from checks import check_data
    if out["code"] != 0:
        return []
    outdir = out["outdir"]
    doc = json.loads((outdir / "morse_graph.json").read_text())
    manifest = json.loads((outdir / "manifest.json").read_text())
    caches = sorted(outdir.glob("boxmap_*.npz"))
    if len(caches) != 1:
        return [f"data: {len(caches)} box-map files written, want 1"]
    with np.load(caches[0]) as z:
        boxmap = (z["jmin"], z["jmax"], z["exterior"])
    regions = [np.asarray(nd["region"], dtype=np.int64) for nd in doc["nodes"]]
    order = {tuple(p) for p in doc["order"]}
    labels = [tuple(nd["conley_index"]["labels"]) for nd in doc["nodes"]]
    shape = tuple(1 << d for d in inputs["depths"])
    fails = check_data(inputs["xs"], inputs["ys"], DATA_LIPSCHITZ, DATA_RHO,
                       LESLIE_LOWER, LESLIE_UPPER, shape, boxmap, regions,
                       order, labels)
    rows = (outdir / "regions.csv").read_text().splitlines()[2:]
    assigned = sorted(int(r.split(",")[0]) for r in rows)
    if assigned != sorted(int(b) for r in regions for b in r):
        fails.append("data: regions.csv differs from morse_graph.json")
    if manifest["n_boxes"] != int(np.prod(shape)) or \
            manifest["n_morse_nodes"] != len(regions):
        fails.append("data: manifest counts differ from the outputs")
    return fails


@dataclass(frozen=True)
class Workload:
    """setup(seed, workdir) -> inputs; round(inputs, outdir, stages) ->
    Round; check(inputs, outputs) -> failure messages."""

    setup: object
    round: object
    check: object


WORKLOADS = {
    "leslie-2e14-index": Workload(leslie_setup, index_round, index_check),
    "leslie-2e15-nu": Workload(leslie_setup, nu_round, nu_check),
    "data-2e9-cli": Workload(data_setup, data_round, data_check),
}

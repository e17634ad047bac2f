"""Tests of the benchmark itself, on small grids.

Each check is run once on a correct output, where it must pass, and on
outputs corrupted the way a broken program could corrupt them, where it
must fail.  Run from the repository root:

    python3 -m pytest -q bench
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(BENCH))

from boxdyn import compare, graph_dynamics  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def leslie(depths, rho):
    bm, _, mg = workloads.leslie_morse_graph(depths, rho, workloads.Stages())
    return bm, mg


def adjacency(bm):
    return checks.edge_matrix(bm.jmin, bm.jmax, bm.exterior, bm.grid.shape)


def test_edge_matrix_matches_box_targets():
    bm, _ = leslie((4, 5), 0.5)
    adj = adjacency(bm)
    for box in range(bm.n_boxes):
        got = adj.indices[adj.indptr[box]:adj.indptr[box + 1]]
        assert np.array_equal(np.sort(got), bm.targets(box))


def test_morse_graph_check_rejects_dropped_and_merged_nodes():
    bm, mg = leslie((7, 7), 0.03)
    adj = adjacency(bm)
    regions, order = list(mg.regions), set(mg.order)
    assert len(regions) >= 3
    fails, _ = checks.check_morse_graph(adj, regions, order, "t")
    assert fails == []

    dropped = regions[:-1]
    kept_order = {(a, b) for a, b in order if max(a, b) < len(dropped)}
    assert checks.check_morse_graph(adj, dropped, kept_order, "t")[0]

    merged = [np.union1d(regions[0], regions[1])] + regions[2:]
    shifted = {(max(a - 1, 0), max(b - 1, 0)) for a, b in order
               if {a, b} != {0, 1}}
    assert checks.check_morse_graph(adj, merged, shifted, "t")[0]

    assert checks.check_morse_graph(adj, regions, set(list(order)[1:]),
                                    "t")[0]


def synthetic_leslie_graph(shape, seed):
    """Regions placed where the Leslie nodes lie, ordered and labelled as
    at depths (7, 7): attractor < artifact < fixed point < origin."""
    lo, hi = workloads.LESLIE_LOWER, workloads.LESLIE_UPPER

    def box(p):
        return checks.box_of(p, lo, hi, shape)

    tail = {box(x) for t in checks.orbit_tails(seed) for x in t}
    regions = [np.array(sorted(tail)),
               np.array([box((85.0, 65.0))]),
               np.array([box(workloads.leslie_fixed_point())]),
               np.array([0])]
    flat = np.concatenate(regions)
    assert np.unique(flat).size == flat.size
    order = {(0, 1), (1, 2), (0, 2), (2, 3), (1, 3), (0, 3)}
    labels = [("x^3 - 1", "0", "0"), ("0", "0", "0"),
              ("0", "x^2 + x + 1", "0"), ("0", "0", "0")]
    return regions, order, labels


def test_leslie_label_check_rejects_swapped_labels():
    shape, seed = (128, 128), 7
    regions, order, labels = synthetic_leslie_graph(shape, seed)
    assert checks.check_leslie_labels(regions, order, labels, shape,
                                      seed) == []
    for a, b in ((0, 1), (0, 2), (1, 2), (2, 3)):
        swapped = list(labels)
        swapped[a], swapped[b] = swapped[b], swapped[a]
        assert checks.check_leslie_labels(regions, order, swapped, shape,
                                          seed)
    reversed_order = {(b, a) for a, b in order}
    assert checks.check_leslie_labels(regions, reversed_order, labels,
                                      shape, seed)


def test_nu_check_rejects_changed_assignment():
    fine_bm, fine = leslie((6, 6), 0.03)
    coarse_bm, coarse = leslie((6, 5), 0.05)
    nu = compare.project(fine, coarse)
    assert nu.well_defined and len(coarse.nodes) == 2
    _, downsets = checks.check_morse_graph(
        adjacency(coarse_bm), list(coarse.regions), set(coarse.order), "c")

    def run(assignment):
        return checks.check_nu(list(fine.regions), set(fine.order),
                               fine.grid.shape, downsets, set(coarse.order),
                               coarse.grid.shape, assignment)

    assert run(nu.assignment) == []
    for q in fine.nodes:
        changed = dict(nu.assignment)
        changed[q] = 1 - changed[q]
        assert run(changed)
    missing = dict(nu.assignment)
    missing.pop(0)
    assert run(missing)


@pytest.fixture(scope="module")
def data_run(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("data")
    inputs = workloads.data_setup(20260826, workdir, depths=(3, 4))
    result = workloads.data_round(inputs, workdir / "out",
                                  workloads.Stages())
    assert result.failed == 0
    return inputs, result.outputs


def test_data_check_passes(data_run):
    inputs, out = data_run
    assert workloads.data_check(inputs, out) == []


def corrupt(out, tmp_path, edit_graph=None, edit_boxmap=None):
    """Copy the run's outputs and apply an edit to the copy."""
    src, dst = out["outdir"], tmp_path / "out"
    dst.mkdir()
    for f in src.iterdir():
        (dst / f.name).write_bytes(f.read_bytes())
    if edit_graph:
        doc = json.loads((dst / "morse_graph.json").read_text())
        edit_graph(doc)
        (dst / "morse_graph.json").write_text(json.dumps(doc))
    if edit_boxmap:
        cache = next(dst.glob("boxmap_*.npz"))
        with np.load(cache) as z:
            arrays = {k: z[k].copy() for k in z.files}
        edit_boxmap(arrays)
        np.savez_compressed(cache, **arrays)
    return dict(out, outdir=dst)


def test_data_check_rejects_enclosure_missing_a_sample(data_run, tmp_path):
    inputs, out = data_run
    shape = tuple(1 << d for d in inputs["depths"])
    lo, hi = workloads.LESLIE_LOWER, workloads.LESLIE_UPPER
    x, y = next((x, y) for x, y in zip(inputs["xs"], inputs["ys"])
                if np.all(y >= lo) and np.all(y <= hi))
    src = checks.box_of(x, lo, hi, shape)
    tgt = np.unravel_index(checks.box_of(y, lo, hi, shape), shape)

    def shrink(arrays):
        # cut the sample's target out of its source box's range
        jmin, jmax = arrays["jmin"], arrays["jmax"]
        if tgt[0] > 0:
            jmax[src, 0] = tgt[0] - 1
            jmin[src, 0] = min(jmin[src, 0], tgt[0] - 1)
        else:
            jmin[src, 0] = tgt[0] + 1
            jmax[src, 0] = max(jmax[src, 0], tgt[0] + 1)

    fails = workloads.data_check(inputs, corrupt(out, tmp_path,
                                                 edit_boxmap=shrink))
    assert any("sample" in f for f in fails)


def test_data_check_rejects_swapped_label(data_run, tmp_path):
    inputs, out = data_run

    def relabel(doc):
        doc["nodes"][0]["conley_index"]["labels"] = ["0", "0", "x - 1"]

    assert workloads.data_check(inputs, corrupt(out, tmp_path,
                                                 edit_graph=relabel))


def test_data_check_rejects_dropped_boxes(data_run, tmp_path):
    inputs, out = data_run

    def drop(doc):
        doc["nodes"][0]["region"] = doc["nodes"][0]["region"][1:]

    assert workloads.data_check(inputs, corrupt(out, tmp_path,
                                                edit_graph=drop))


def test_tracer_spans_nest_and_restore():
    original = graph_dynamics.condensation
    tracer = Tracer()
    with tracer:
        assert graph_dynamics.condensation is not original
        bm, mg = leslie((5, 5), 0.03)
    assert graph_dynamics.condensation is original
    names = [s["name"] for s in tracer.spans]
    assert names[:4] == ["outer_approx.build_boxmap", "oracles.image_rects",
                         "graph_dynamics.condensation",
                         "graph_dynamics.morse_graph"]
    assert tracer.spans[1]["parent"] == 0
    self_s = tracer.self_times()
    assert sum(self_s.values()) == pytest.approx(tracer.top_level_seconds())
    assert tracer.count_sum("outer_approx.build_boxmap", "edges") == \
        bm.total_edges()
    assert tracer.count_sum("graph_dynamics.morse_graph", "morse_nodes") == \
        len(mg.nodes)


def test_run_refuses_a_tree_without_the_package(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload",
         "leslie-2e15-nu", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

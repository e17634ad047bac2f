"""End-to-end acceptance checks.

Each criterion prints one "ACCEPTANCE n: PASS/FAIL" line.  Criteria 1
and 3 check the published Morse graphs up to grid artifacts: beside an
expanding direction of a nonzero-index node, a sound outer approximation
keeps a box (or a short box cycle) that has a self-loop but no edge
back.  Such an extra node must carry an all-zero index and touch a
nonzero-index node; tests/test_regression.py pins the full structures.
"""

import itertools
import json
import resource
import time

import numpy as np

from boxdyn import (
    CallableOracle,
    CubicalGrid,
    HomologyBasis,
    LeslieOracle,
    PairComplex,
    PhaseSpace,
    PiecewiseExample1D,
    build_boxmap,
    chain_map,
    check_epimorphism,
    condensation,
    conley_index,
    encloses,
    morse_graph,
    project,
    shift_class,
    shift_invariant_factors,
)
from conftest import (apply_chain_map, boundary_chains, brute_betti,
                      brute_sccs, criterion6_pairs, digraph_boxmap,
                      rank_mod_p, solve_mod_p)


def report(n, checks):
    failing = [desc for desc, ok in checks if not ok]
    verdict = "PASS" if not failing else "FAIL"
    print(f"\nACCEPTANCE {n}: {verdict}"
          + (f"  (failing: {'; '.join(failing)})" if failing else ""))
    assert not failing, f"criterion {n} failing sub-claims: {failing}"


def node_containing(mg, point):
    box = mg.grid.linearize(mg.grid.box_containing(point))
    for q in mg.nodes:
        if box in mg.region_of(q):
            return q
    return None


def nonzero_nodes(mg):
    return [q for q in mg.nodes if not mg.index_of[q].is_trivial()]


def touches_any(mg, q, others):
    """Whether node q's region lies within Chebyshev box distance 1 of
    the region of some node in others."""
    grid = mg.grid
    idx = np.stack(np.unravel_index(mg.region_of(q), grid.shape), axis=1)
    steps = np.array(list(itertools.product((-1, 0, 1),
                                            repeat=grid.dimension)))
    near = (idx[:, None, :] + steps).reshape(-1, grid.dimension)
    near = near[((near >= 0) & (near < grid.shape)).all(axis=1)]
    near = np.ravel_multi_index(tuple(near.T), grid.shape)
    return any(np.isin(near, mg.region_of(p)).any() for p in others)


def only_grid_artifacts_besides(mg, named):
    """Every node outside named has an all-zero index and touches a
    node with a nonzero index."""
    nonzero = nonzero_nodes(mg)
    return all(mg.index_of[q].is_trivial() and touches_any(mg, q, nonzero)
               for q in mg.nodes if q not in named)


def analyzed_piecewise(theta, depth, rho, prime=5):
    grid = CubicalGrid(PhaseSpace([-2.0], [2.0]), [depth])
    bm = build_boxmap(grid, PiecewiseExample1D(theta), rho)
    cond = condensation(bm)
    mg = morse_graph(cond)
    for q, cid in enumerate(mg.component_ids):
        mg.index_of[q] = conley_index(bm, cond, cid, prime)
    return mg


class TestCriterion1:
    def test_piecewise_example_reproduction(self):
        t0 = time.perf_counter()
        mg = analyzed_piecewise(1.5, 10, 1e-3)
        elapsed = time.perf_counter() - t0
        q0 = node_containing(mg, [0.0])
        q15 = node_containing(mg, [1.5])
        qtop = node_containing(mg, [1.0])
        nonzero = nonzero_nodes(mg)
        checks = [
            ("node containing 0 exists", q0 is not None),
            ("node containing 1.5 exists", q15 is not None),
            ("node containing 1 exists", qtop is not None),
            ("label at 0 is (x - 1, 0)",
             mg.index_of[q0].labels() == ("x - 1", "0")),
            ("label at 1.5 is (x - 1, 0)",
             mg.index_of[q15].labels() == ("x - 1", "0")),
            ("label at 1 is (0, x - 1)",
             mg.index_of[qtop].labels() == ("0", "x - 1")),
            ("node(0) < node(1)", mg.leq(q0, qtop) and q0 != qtop),
            ("node(1.5) < node(1)", mg.leq(q15, qtop) and q15 != qtop),
            ("runtime < 1 s", elapsed < 1.0),
            # f(x) = 2x - 1 near x = 1, so at every rho >= 0 one box on
            # each side of the repeller has a self-loop and no edge back.
            ("exactly 3 nodes have a nonzero index: those containing "
             "0, 1.5 and 1",
             len(nonzero) == 3 and set(nonzero) == {q0, q15, qtop}),
            ("every other node is all-zero and touches a nonzero-index "
             "node", only_grid_artifacts_besides(mg, {q0, q15, qtop})),
        ]
        report(1, checks)


class TestCriterion2:
    def test_small_theta_regimes(self):
        t0 = time.perf_counter()
        mg_half = analyzed_piecewise(0.5, 10, 1e-3)
        grid12 = CubicalGrid(PhaseSpace([-2.0], [2.0]), [12])
        bm = build_boxmap(grid12, PiecewiseExample1D(1.0), 1e-3)
        mg_one = morse_graph(condensation(bm))
        elapsed = time.perf_counter() - t0
        checks = [
            ("theta=0.5 single node", len(mg_half.nodes) == 1),
            ("theta=0.5 label (x - 1, 0)",
             mg_half.index_of[0].labels() == ("x - 1", "0")),
            ("theta=1.0 some region contains x=1",
             node_containing(mg_one, [1.0]) is not None),
            ("runtime < 1 s", elapsed < 1.0),
        ]
        report(2, checks)


class TestCriterion3:
    def test_leslie_baseline(self, leslie_coarse):
        mg, elapsed = leslie_coarse
        peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1e6
        labels = {q: mg.index_of[q].labels() for q in mg.nodes}
        minimal = mg.minimal_nodes()
        nonzero = nonzero_nodes(mg)
        q_origin = node_containing(mg, [0.0, 0.0])
        deg1_dim2 = [q for q in mg.nodes
                     if mg.index_of[q].polys[2] is not None
                     and len(mg.index_of[q].polys[2]) == 2]
        checks = [
            ("unique minimal node", len(minimal) == 1),
            ("minimal label (x^3 - 1, 0, 0)",
             labels[minimal[0]] == ("x^3 - 1", "0", "0")),
            ("exactly one degree-1 polynomial in dim 2", len(deg1_dim2) == 1),
            ("its value is x - 1",
             bool(deg1_dim2) and labels[deg1_dim2[0]][2] == "x - 1"),
            ("within 10 min", elapsed < 600.0),
            ("within 8 GB", peak_gb < 8.0),
            # As in criterion 1, now in the saddle's expanding direction:
            # two period-3 box cycles with all-zero index touch the saddle.
            ("exactly 3 nodes have a nonzero index", len(nonzero) == 3),
            ("node containing (0, 0) exists and is all-zero",
             q_origin is not None and mg.index_of[q_origin].is_trivial()),
            ("every other node is all-zero and touches a nonzero-index "
             "node",
             only_grid_artifacts_besides(mg, set(nonzero) | {q_origin})),
        ]
        report(3, checks)


class TestCriterion4:
    def test_nu_projection_from_2_21_boxes(self):
        # Coarse target at rho = 0.05, where the spurious nodes have
        # dissolved and the graph is a Morse-representation surrogate.
        coarse_grid = CubicalGrid(PhaseSpace((0.0, 0.0), (90.0, 70.0)), (9, 9))
        coarse_bm = build_boxmap(coarse_grid, LeslieOracle((23.5, 23.5)), 0.05)
        coarse = morse_graph(condensation(coarse_bm))
        fine_grid = CubicalGrid(PhaseSpace((0.0, 0.0), (90.0, 70.0)), (10, 11))
        assert fine_grid.box_count == 1 << 21
        fine_bm = build_boxmap(fine_grid, LeslieOracle((23.5, 23.5)), 0.03)
        fine = morse_graph(condensation(fine_bm))
        nu = project(fine, coarse)
        rep = check_epimorphism(nu, fine, coarse)
        checks = [
            ("fine grid holds 2^21 boxes", fine_grid.box_count == 2**21),
            ("nu well-defined", nu.well_defined),
            ("nu surjective", nu.surjective),
            ("nu order-preserving", nu.order_preserving),
            ("independent epimorphism check", rep["is_epimorphism"]),
            ("fine graph refines coarse",
             len(fine.nodes) >= len(coarse.nodes)),
        ]
        report(4, checks)


class TestCriterion5:
    def test_a_scc_vs_brute_force(self, rng):
        ok = True
        for _ in range(200):
            n = int(rng.integers(1, 13))
            m = int(rng.integers(0, 2 * n + 1))
            edges = sorted({(int(rng.integers(0, n)), int(rng.integers(0, n)))
                            for _ in range(m)})
            bm = digraph_boxmap(n, edges)
            cond = condensation(bm)
            want_comps, want_rec = brute_sccs(n, edges)
            got = {}
            for v in range(n):
                got.setdefault(cond.component_of(v), []).append(v)
            got_comps = sorted(sorted(v) for v in got.values())
            ok &= got_comps == sorted(want_comps)
            for comp, rec in zip(want_comps, want_rec):
                ok &= cond.is_recurrent(cond.component_of(comp[0])) == rec
        report("5a", [("SCC + recurrence vs brute force, 200 digraphs", ok)])

    def test_b_enclosure_rho_monotonicity(self, rng):
        ok = True
        grid1 = CubicalGrid(PhaseSpace([-2.0], [2.0]), [6])
        grid2 = CubicalGrid(PhaseSpace((0.0, 0.0), (90.0, 70.0)), (5, 5))
        for _ in range(200):
            r1, r2 = sorted(rng.uniform(0.0, 1.0, size=2))
            if rng.random() < 0.5:
                o = PiecewiseExample1D(float(rng.uniform(0.0, 2.0)))
                g = grid1
            else:
                o = LeslieOracle((float(rng.uniform(5, 30)),
                                  float(rng.uniform(5, 30))))
                g = grid2
            small = build_boxmap(g, o, r1)
            big = build_boxmap(g, o, r2)
            ok &= encloses(big, small)
        report("5b", [("F_rho2 encloses F_rho1 for rho1 <= rho2, 200 cases",
                       ok)])

    def test_c_pointwise_soundness_all_oracles(self, rng):
        from boxdyn import LipschitzDataOracle, MlpOracle
        ok = True
        cases = 0
        g1 = CubicalGrid(PhaseSpace([-2.0], [2.0]), [6])
        g2 = CubicalGrid(PhaseSpace((0.0, 0.0), (90.0, 70.0)), (5, 5))
        layers = [(rng.uniform(-1, 1, size=(4, 2)), rng.uniform(-1, 1, 4)),
                  (rng.uniform(-1, 1, size=(2, 4)), rng.uniform(-1, 1, 2))]
        mlp = MlpOracle(layers)
        xs = rng.uniform(-2, 2, size=(300, 1))
        data = LipschitzDataOracle(xs, np.sin(2 * xs), 2.0)
        oracles = [
            (PiecewiseExample1D(1.5), g1, None),
            (LeslieOracle((23.5, 23.5)), g2, None),
            (CallableOracle(lambda x: np.cos(x), 1.0, 1), g1, None),
            (mlp, CubicalGrid(PhaseSpace([-1.0, -1.0], [1.0, 1.0]), [4, 4]),
             None),
            (data, g1, lambda x: np.sin(2 * x)),
        ]
        for oracle, g, truth in oracles:
            bm = build_boxmap(g, oracle, 1e-9)
            for _ in range(40):
                x = np.array([rng.uniform(lo, hi) for lo, hi in
                              zip(g.space.lower, g.space.upper)])
                fx = truth(x) if truth is not None else oracle.eval(x)
                src = g.linearize(g.box_containing(x))
                if np.any(fx < np.array(g.space.lower)) or \
                   np.any(fx > np.array(g.space.upper)):
                    cases += 1
                    continue
                tgt = g.linearize(g.box_containing(np.clip(
                    fx, g.space.lower, g.space.upper)))
                ok &= tgt in set(bm.targets(src).tolist())
                cases += 1
        report("5c", [(f"f(x) lands in F(box(x)), {cases} samples "
                       "across 5 oracle types", ok and cases >= 200)])

    def test_d_boundary_and_chain_map_identities(self, rng):
        ok = True
        # del(del) = 0 on the closure boundary of 170 random complexes
        # across dimensions 1..4
        p = 5
        for _ in range(170):
            d = int(rng.integers(1, 5))
            g = CubicalGrid(PhaseSpace([0.0] * d, [1.0] * d),
                            rng.integers(1, 3 if d < 4 else 2, size=d))
            p1 = rng.choice(g.box_count, size=rng.integers(1, g.box_count + 1),
                            replace=False)
            p0 = [int(b) for b in p1 if rng.random() < 0.3]
            cx = PairComplex(g, p1, p0, p)
            faces, signs = cx.faces.tolist(), cx.signs.tolist()
            for row in range(len(faces)):
                acc = {}
                for f1, s1 in zip(faces[row], signs[row]):
                    if f1 < 0:
                        continue
                    for f2, s2 in zip(faces[f1], signs[f1]):
                        if f2 >= 0:
                            acc[f2] = (acc.get(f2, 0) + s1 * s2) % p
                ok &= all(v == 0 for v in acc.values())
        # del(phi) = phi(del) on 30 constructed chain maps
        g = CubicalGrid(PhaseSpace([0.0, 0.0], [1.0, 1.0]), [2, 2])
        for _ in range(30):
            a, b = rng.uniform(0.05, 0.95, size=2)
            o = CallableOracle(lambda x, a=a, b=b: np.array(
                [a * x[0] + (1 - a) * x[1], b * x[1]]), 1.0, 2)
            bm = build_boxmap(g, o, float(rng.uniform(0, 0.2)))
            cx = PairComplex(g, range(16), set())
            cm = chain_map(bm, cx)  # construction verifies the identity
            bd = boundary_chains(cx)
            for cell in range(len(cx)):
                lhs = {}
                for c2, v in cm[cell].items():
                    for face, bv in bd[c2].items():
                        lhs[face] = (lhs.get(face, 0) + v * bv) % cx.prime
                lhs = {c: v for c, v in lhs.items() if v}
                ok &= lhs == apply_chain_map(cm, bd[cell])
        report("5d", [("del(del)=0 and del(phi)=phi(del), 200 cases", ok)])

    def test_e_shift_class_similarity_invariance(self, rng):
        p, ok = 5, True
        done = 0
        while done < 200:
            n = int(rng.integers(1, 6))
            m = rng.integers(0, p, size=(n, n)).astype(np.int64)
            s = rng.integers(0, p, size=(n, n)).astype(np.int64)
            if rank_mod_p(s, p) < n:
                continue
            s_inv = np.zeros((n, n), dtype=np.int64)
            for j in range(n):
                e = np.zeros(n, dtype=np.int64)
                e[j] = 1
                s_inv[:, j] = solve_mod_p(s, e, p)
            conj = (s @ m % p @ s_inv) % p
            ok &= shift_class(conj, p) == shift_class(m, p)
            ok &= shift_invariant_factors(conj, p) == \
                shift_invariant_factors(m, p)
            done += 1
        report("5e", [("shift class invariant under 200 F_5 conjugations",
                       ok)])

    def test_f_homology_ranks_vs_independent_oracle(self, rng):
        ok = True
        g = CubicalGrid(PhaseSpace([0.0, 0.0], [1.0, 1.0]), [2, 2])
        for _ in range(200):
            boxes = set(int(b) for b in rng.choice(
                16, size=int(rng.integers(1, 15)), replace=False))
            p0 = set(int(b) for b in boxes if rng.random() < 0.35)
            cx = PairComplex(g, boxes, p0)
            assert len(cx) <= 200
            ok &= HomologyBasis(cx).betti_numbers(2) == brute_betti(cx, 2)
        report("5f", [("homology ranks vs dense rank-nullity oracle, "
                       "200 complexes", ok)])


class TestCriterion6:
    def test_data_driven_run(self, tmp_path):
        rows = [f"{x[0]} {x[1]} {y[0]} {y[1]}"
                for x, y in zip(*criterion6_pairs())]
        data_path = tmp_path / "leslie_pairs.txt"
        data_path.write_text("trajectory-pairs v1\n" + "\n".join(rows) + "\n")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "domain": {"lower": [0.0, 0.0], "upper": [90.0, 70.0]},
            "depths": [6, 6],
            "rho": 0.1,
            "prime": 5,
            "oracle": {"type": "data", "samples": str(data_path),
                       "lipschitz": 34.0},
            "out": str(tmp_path / "out"),
        }))
        from boxdyn.cli import main
        rc = main(["analyze", "--config", str(cfg_path)])
        out = tmp_path / "out"
        manifest_ok = False
        nodes = 0
        if (out / "manifest.json").exists():
            manifest = json.loads((out / "manifest.json").read_text())
            manifest_ok = (manifest["n_boxes"] == 4096
                           and manifest["oracle_lipschitz_bound"] == 34.0
                           and "timings" in manifest
                           and "versions" in manifest)
            nodes = manifest["n_morse_nodes"]
        checks = [
            ("pipeline completes (exit 0)", rc == 0),
            ("morse graph emitted with >= 1 node",
             (out / "morse_graph.json").exists() and nodes >= 1),
            ("manifest valid", manifest_ok),
        ]
        report(6, checks)

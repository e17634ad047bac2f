import itertools
import json
import tracemalloc

import numpy as np
import pytest

from boxdyn import (
    BoxdynError,
    CallableOracle,
    CubicalGrid,
    LeslieOracle,
    LipschitzDataOracle,
    NodeNotRecurrent,
    PhaseSpace,
    PiecewiseExample1D,
    build_boxmap,
    condensation,
    downset,
    index_pair,
    morse_graph,
    verify_attracting_block,
)
from boxdyn import graph_dynamics, outer_approx
from boxdyn.graph_dynamics import morse_graph_from_jsonable
from boxdyn.outer_approx import BoxMap

from conftest import (brute_sccs, criterion6_pairs, dag_edges,
                      digraph_boxmap, reachability_closure)


class TestCondensation:
    def test_two_cycle_with_sink(self):
        # a=0, b=1, c=2; edges a->b, b->a, b->c, c->c
        bm = digraph_boxmap(3, [(0, 1), (1, 0), (1, 2), (2, 2)])
        cond = condensation(bm)
        assert np.array_equal(cond.members(cond.component_of(0)), [0, 1])
        assert cond.component_of(0) == cond.component_of(1)
        assert cond.is_recurrent(cond.component_of(0))
        assert cond.is_recurrent(cond.component_of(2))
        assert dag_edges(cond) == {(cond.component_of(0), cond.component_of(2))}

    def test_chain_has_no_recurrence(self):
        bm = digraph_boxmap(3, [(0, 1), (1, 2)])
        cond = condensation(bm)
        assert cond.recurrent.size == 0
        assert cond.n_components == 3

    def test_single_self_loop(self):
        bm = digraph_boxmap(2, [(0, 0)])
        cond = condensation(bm)
        assert list(cond.recurrent) == [0]
        assert cond.is_recurrent(0)

    def test_component_ids_are_smallest_members(self):
        bm = digraph_boxmap(4, [(3, 2), (2, 3), (1, 1), (0, 1)])
        cond = condensation(bm)
        assert cond.component_of(3) == 2
        assert cond.component_of(2) == 2
        assert sorted(cond.recurrent) == [1, 2]

    def test_against_brute_force(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 13))
            m = int(rng.integers(0, n * n))
            edges = {(int(rng.integers(0, n)), int(rng.integers(0, n)))
                     for _ in range(m)}
            cond = condensation(digraph_boxmap(n, edges))
            comps, rec = brute_sccs(n, edges)
            for comp, r in zip(comps, rec):
                cid = cond.component_of(comp[0])
                assert sorted(cond.members(cid).tolist()) == comp
                assert cond.is_recurrent(cid) == r
            assert cond.n_components == len(comps)

    def test_condensation_is_acyclic(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 10))
            edges = {(int(rng.integers(0, n)), int(rng.integers(0, n)))
                     for _ in range(int(rng.integers(0, 2 * n)))}
            cond = condensation(digraph_boxmap(n, edges))
            dag = dag_edges(cond)
            ids = sorted({c for e in dag for c in e} | set(cond.component_ids()))
            closure = reachability_closure(
                max(ids, default=0) + 1, list(dag)
            )
            assert not any(closure[c, c] for c in ids)

    def test_boxmaps_against_brute_force(self, rng):
        """Real box maps: SCCs, recurrence, downsets and order against the
        brute-force oracles on the edge list expanded from the ranges."""
        maps = [build_boxmap(CubicalGrid(PhaseSpace([-2.0], [2.0]), [7]),
                             PiecewiseExample1D(1.5), 2e-3)]
        grid = CubicalGrid(PhaseSpace([0.0, 0.0], [1.0, 1.0]), [3, 3])
        for _ in range(20):
            a = rng.random(4) * 2 - 1
            f = lambda x, a=a: np.array(
                [
                    0.5 + 0.4 * np.sin(a[0] * x[0] + a[1] * x[1]),
                    0.5 + 0.4 * np.cos(a[2] * x[0] + a[3] * x[1]),
                ]
            )
            maps.append(build_boxmap(grid, CallableOracle(f, 2.0, 2), 0.0))
        for bm in maps:
            n = bm.n_boxes
            edges = [
                (b, bm.grid.linearize(t))
                for b in range(n) if not bm.exterior[b]
                for t in itertools.product(*[
                    range(lo, hi + 1) for lo, hi in zip(bm.jmin[b], bm.jmax[b])
                ])
            ]
            indptr, cols = bm.expand(np.arange(n))
            rows = np.repeat(np.arange(n), np.diff(indptr))
            assert sorted(zip(rows.tolist(), cols.tolist())) == sorted(edges)
            cond = condensation(bm)
            comps, rec = brute_sccs(n, edges)
            for comp, r in zip(comps, rec):
                cid = cond.component_of(comp[0])
                assert cond.members(cid).tolist() == comp
                assert cond.is_recurrent(cid) == r
            assert cond.n_components == len(comps)
            mg = morse_graph(cond)
            want = [c for c, r in zip(comps, rec) if r]
            assert [mg.region_of(q).tolist() for q in mg.nodes] == want
            closure = reachability_closure(n, edges)
            roots = [c[0] for c in want]
            for q, root in enumerate(roots):
                reach = closure[root].copy()
                reach[root] = True
                assert mg.downset_of(q).tolist() == np.flatnonzero(reach).tolist()
            assert mg.order == {(a, b) for a, ra in enumerate(roots)
                                for b, rb in enumerate(roots)
                                if a != b and closure[rb, ra]}


def random_rect_boxmap(rng, depths):
    """Box map with rectangle ranges that are not isotone: most boxes
    halve their offset from a sink, some stay put and some jump
    anywhere; about one in seven boxes is exterior, with a range of its
    own that must be ignored."""
    d = len(depths)
    grid = CubicalGrid(PhaseSpace([0.0] * d, [1.0] * d), depths)
    shape, n = np.array(grid.shape), grid.box_count
    at = np.stack(np.unravel_index(np.arange(n), grid.shape), axis=1)
    sink = rng.integers(0, shape)
    target = np.where(rng.random((n, d)) < 0.9, sink + (at - sink) // 2, at)
    jump = rng.random(n) < 0.05
    target[jump] = rng.integers(0, shape, size=(int(jump.sum()), d))
    jmin = np.clip(target - (rng.random((n, d)) < 0.3), 0, shape - 1)
    jmax = np.clip(target + (rng.random((n, d)) < 0.3), 0, shape - 1)
    return BoxMap(grid, jmin=jmin.astype(np.int32),
                  jmax=jmax.astype(np.int32), exterior=rng.random(n) < 0.15)


def one_level(monkeypatch, bm):
    """Condensation of the whole grid in one level."""
    with monkeypatch.context() as m:
        m.setattr(graph_dynamics, "_COARSEST_BOXES", bm.n_boxes)
        cond = condensation(bm)
    assert len(cond.levels) == 1
    return cond


def assert_same_graph(cond, ref):
    assert np.array_equal(cond.comp_of, ref.comp_of)
    assert np.array_equal(cond.recurrent, ref.recurrent)
    for cid in ref.recurrent:
        assert np.array_equal(downset(cond, cid), downset(ref, cid))
    mg, want = morse_graph(cond), morse_graph(ref)
    assert mg.component_ids == want.component_ids
    assert mg.order == want.order
    assert all(np.array_equal(a, b) for a, b in zip(mg.regions, want.regions))


class TestPyramid:
    """condensation refines only the boxes that can recur; the result
    must be that of the whole grid for every box map."""

    def test_coarse_ranges_are_hulls_of_interior_children(self, rng):
        for depths in ((4,), (3, 2), (2, 1, 2), (0, 3)):
            for _ in range(5):
                bm = random_rect_boxmap(rng, depths)
                coarse = graph_dynamics._coarsen(bm)
                fine, up = bm.grid, coarse.grid
                halved = [f > c for f, c in zip(fine.shape, up.shape)]
                assert all(f == max(c * 2, 1) if h else f == c for f, c, h
                           in zip(fine.shape, up.shape, halved))
                for p in range(coarse.n_boxes):
                    pi = up.multi_index(p)
                    kids = [fine.linearize(c) for c in itertools.product(*[
                        (2 * j, 2 * j + 1) if h else (j,)
                        for j, h in zip(pi, halved)])]
                    inside = [c for c in kids if not bm.exterior[c]]
                    assert coarse.exterior[p] == (not inside)
                    if not inside:
                        continue
                    shift = np.array(halved, dtype=int)
                    lo = np.min([bm.jmin[c] >> shift for c in inside], axis=0)
                    hi = np.max([bm.jmax[c] >> shift for c in inside], axis=0)
                    assert coarse.jmin[p].tolist() == lo.tolist()
                    assert coarse.jmax[p].tolist() == hi.tolist()

    def test_random_rectangle_maps(self, rng, monkeypatch):
        """Under the hub gate, where these maps of mean out-degree at most
        8 make no hub, and with the gate forced open."""
        for gate in (outer_approx._HUB_DEGREE, 0):
            with monkeypatch.context() as m:
                m.setattr(outer_approx, "_HUB_DEGREE", gate)
                pruned, hubs = self.check_random_rectangle_maps(rng,
                                                                monkeypatch)
            assert pruned >= 20  # the coarse levels left boxes out
            assert (hubs > 0) == (gate == 0)

    @staticmethod
    def check_random_rectangle_maps(rng, monkeypatch):
        """Compare the pyramid with one level and with brute force on 60
        random maps; return how many left boxes out and the hubs made."""
        pruned = hubs = 0
        for depths in ((6,), (3, 3), (2, 2, 2), (4, 2)):
            for _ in range(15):
                bm = random_rect_boxmap(rng, depths)
                ref = one_level(monkeypatch, bm)
                with monkeypatch.context() as m:
                    m.setattr(graph_dynamics, "_COARSEST_BOXES", 2)
                    cond = condensation(bm)
                assert len(cond.levels) >= 3
                assert cond.levels[-1]["candidate_boxes"] == \
                    cond.candidates.size
                pruned += cond.candidates.size < bm.n_boxes
                hubs += sum(lv["hub_nodes"] for lv in cond.levels)
                assert_same_graph(cond, ref)

                n = bm.n_boxes
                indptr, targets = bm.expand(np.arange(n))
                assert ref.levels[0]["candidate_edges"] == targets.size
                edges = list(zip(np.repeat(np.arange(n),
                                           np.diff(indptr)).tolist(),
                                 targets.tolist()))
                comps, rec = brute_sccs(n, edges)
                for comp, r in zip(comps, rec):
                    cid = cond.component_of(comp[0])
                    assert cond.members(cid).tolist() == comp
                    assert cond.is_recurrent(cid) == r
                closure = reachability_closure(n, edges)
                for cid in cond.recurrent:
                    reach = closure[cid].copy()
                    reach[cid] = True
                    assert downset(cond, cid).tolist() == \
                        np.flatnonzero(reach).tolist()
        return pruned, hubs

    def test_leslie_depth7(self, monkeypatch):
        """The Leslie map stays below the hub gate at every level; with
        the gate forced open its hubs leave the graph as it was."""
        grid = CubicalGrid(PhaseSpace([0.0, 0.0], [90.0, 70.0]), [7, 7])
        bm = build_boxmap(grid, LeslieOracle((23.5, 23.5)), 0.03)
        ref = one_level(monkeypatch, bm)
        for gate in (outer_approx._HUB_DEGREE, 0):
            monkeypatch.setattr(outer_approx, "_HUB_DEGREE", gate)
            cond = condensation(bm)
            assert [lv["shape"] for lv in cond.levels] == [[64, 64],
                                                           [128, 128]]
            assert cond.graph.data.strides == (0,)  # no weight stored per edge
            assert_same_graph(cond, ref)
            with monkeypatch.context() as m:
                m.setattr(graph_dynamics, "_COARSEST_BOXES", 16)
                cond6 = condensation(bm)
            assert len(cond6.levels) == 6
            assert cond6.candidates.size < bm.n_boxes
            assert_same_graph(cond6, ref)
            hubs = [lv["hub_nodes"] for lv in cond.levels + cond6.levels]
            if gate:
                assert hubs == [0] * 8
            else:
                assert sum(hubs) > 0


class TestHubs:
    def test_complete_graph_goes_through_one_hub(self):
        """Every box of a (4, 5) grid targets the whole grid: one hub
        holds the 512 * 512 box edges in 1,024 stored ones."""
        grid = CubicalGrid(PhaseSpace([0.0, 0.0], [1.0, 1.0]), [4, 5])
        n = grid.box_count
        bm = BoxMap(grid, jmin=np.zeros((n, 2), dtype=np.int32),
                    jmax=np.tile(np.array(grid.shape, dtype=np.int32) - 1,
                                 (n, 1)),
                    exterior=np.zeros(n, dtype=bool))
        cond = condensation(bm)
        assert cond.levels == [{"shape": [16, 32], "candidate_boxes": 512,
                                "candidate_edges": 512 * 512,
                                "graph_edges": 1024, "hub_nodes": 1}]
        assert cond.recurrent.tolist() == [0]
        assert cond.members(0).tolist() == list(range(512))
        assert downset(cond, 0).tolist() == list(range(512))
        mg = morse_graph(cond)
        assert mg.component_ids == [0] and mg.order == set()

    def test_self_loop_through_a_hub(self, monkeypatch):
        """Boxes 0 and 5 of a 1-D grid of 8 share the rectangle [0, 3]
        through one hub; every other box targets box 7.  Box 0 reaches
        itself only through the hub, box 5 not at all."""
        monkeypatch.setattr(outer_approx, "_HUB_DEGREE", 0)
        grid = CubicalGrid(PhaseSpace([0.0], [8.0]), [3])
        jmin = np.full((8, 1), 7, dtype=np.int32)
        jmax = np.full((8, 1), 7, dtype=np.int32)
        jmin[[0, 5]], jmax[[0, 5]] = 0, 3
        bm = BoxMap(grid, jmin=jmin, jmax=jmax,
                    exterior=np.zeros(8, dtype=bool))
        cond = condensation(bm)
        assert cond.levels == [{"shape": [8], "candidate_boxes": 8,
                                "candidate_edges": 14, "graph_edges": 12,
                                "hub_nodes": 1}]
        assert cond.recurrent.tolist() == [0, 7]
        assert cond.members(0).tolist() == [0]
        assert not cond.is_recurrent(cond.component_of(5))
        mg = morse_graph(cond)
        assert mg.component_ids == [0, 7] and mg.order == {(1, 0)}

    def test_data_oracle_graph_stage_memory(self):
        """Criterion 6's data run at 2^12 boxes stands for 16.4 M box
        edges; through hubs the graph stage's traced peak stays a few MB
        (188 MB when every edge was stored).  At 2^14 boxes it stays
        under 48 MiB, with no array of one entry per stored edge beside
        the graph's indices (86 MiB when self-loops were read from the
        CSR diagonal)."""
        xs, ys = criterion6_pairs()
        oracle = LipschitzDataOracle(xs, ys, 34.0)
        for depths, bound in (((6, 6), 32 << 20), ((7, 7), 48 << 20)):
            grid = CubicalGrid(PhaseSpace([0.0, 0.0], [90.0, 70.0]), depths)
            bm = build_boxmap(grid, oracle, 0.1)
            tracemalloc.start()
            try:
                cond = condensation(bm)
                mg = morse_graph(cond)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert mg.nodes
            assert peak < bound, depths


class TestDownsetAndIndexPair:
    def bm(self):
        return digraph_boxmap(3, [(0, 1), (1, 0), (1, 2), (2, 2)])

    def test_downset_of_cycle(self):
        bm = self.bm()
        cond = condensation(bm)
        assert downset(cond, cond.component_of(0)).tolist() == [0, 1, 2]

    def test_downset_of_sink(self):
        bm = self.bm()
        cond = condensation(bm)
        assert downset(cond, cond.component_of(2)).tolist() == [2]

    def test_downset_requires_recurrent(self):
        bm = digraph_boxmap(3, [(0, 1), (1, 2), (2, 2)])
        cond = condensation(bm)
        with pytest.raises(NodeNotRecurrent):
            downset(cond, cond.component_of(0))

    def test_index_pair_sink(self):
        bm = self.bm()
        cond = condensation(bm)
        pair = index_pair(cond, cond.component_of(2))
        assert pair.p1.tolist() == [2]
        assert pair.p0.tolist() == []

    def test_index_pair_cycle(self):
        bm = self.bm()
        cond = condensation(bm)
        pair = index_pair(cond, cond.component_of(0))
        assert pair.p1.tolist() == [0, 1, 2]
        assert pair.p0.tolist() == [2]

    def test_index_pair_parts_forward_invariant(self):
        bm = self.bm()
        cond = condensation(bm)
        for cid in cond.recurrent:
            pair = index_pair(cond, int(cid))
            assert verify_attracting_block(bm, pair.p1)
            assert verify_attracting_block(bm, pair.p0)

    def test_piecewise_top_node_p0_is_union_of_attracting_downsets(self):
        grid = CubicalGrid(PhaseSpace([-2.0], [2.0]), [10])
        bm = build_boxmap(grid, PiecewiseExample1D(1.5), 1e-3)
        cond = condensation(bm)
        mg = morse_graph(cond)
        top = [q for q in mg.nodes if all(mg.leq(x, q) for x in mg.nodes)]
        assert len(top) == 1
        top = top[0]
        pair = index_pair(cond, mg.component_ids[top])
        below = np.concatenate(
            [mg.downset_of(q) for q in mg.nodes if q != top and mg.leq(q, top)]
        )
        assert set(pair.p0.tolist()) == set(below.tolist())
        assert verify_attracting_block(bm, pair.p0)

    def test_index_pair_reuses_the_morse_graph_search(self, monkeypatch):
        """morse_graph runs one breadth-first search per node; the index
        pairs after it reuse those downsets instead of searching again."""
        grid = CubicalGrid(PhaseSpace([-2.0], [2.0]), [7])
        bm = build_boxmap(grid, PiecewiseExample1D(1.5), 1e-3)
        cond = condensation(bm)
        starts = []
        search = graph_dynamics.breadth_first_order

        def counted(graph, start, **kw):
            starts.append(start)
            return search(graph, start, **kw)

        monkeypatch.setattr(graph_dynamics, "breadth_first_order", counted)
        mg = morse_graph(cond)
        assert sorted(starts) == mg.component_ids
        for q, cid in enumerate(mg.component_ids):
            pair = index_pair(cond, cid)
            assert set(pair.p1.tolist()) <= set(mg.downset_of(q).tolist())
        assert len(starts) == len(mg.nodes)

    def test_downset_is_minimal_forward_invariant_superset(self):
        bm = self.bm()
        cond = condensation(bm)
        cid = cond.component_of(0)
        ds = downset(cond, cid)
        region = set(cond.members(cid).tolist())
        for b in ds:
            if int(b) in region:
                continue
            smaller = [x for x in ds if x != b]
            assert not verify_attracting_block(bm, smaller)


class TestVerifyAttractingBlock:
    def test_all_boxes_true(self):
        grid = CubicalGrid(PhaseSpace([-2.0], [2.0]), [5])
        bm = build_boxmap(grid, PiecewiseExample1D(1.5), 0.0)
        assert verify_attracting_block(bm, range(grid.box_count))

    def test_empty_true(self):
        bm = digraph_boxmap(2, [(0, 1)])
        assert verify_attracting_block(bm, [])

    def test_escaping_single_box_false(self):
        bm = digraph_boxmap(2, [(0, 1)])
        assert not verify_attracting_block(bm, [0])

    @pytest.mark.parametrize("box", [-1, 2, -3])
    def test_box_outside_the_grid_refused(self, box):
        bm = digraph_boxmap(2, [(0, 1), (1, 1)])
        with pytest.raises(BoxdynError, match="outside the grid"):
            verify_attracting_block(bm, [1, box])

    @pytest.mark.parametrize("boxes", [[1, 1.5], [1.0], [1, True],
                                       np.array([1.0])])
    def test_non_integer_box_refused(self, boxes):
        """A float or a bool is not cast to a box index."""
        bm = digraph_boxmap(2, [(0, 1), (1, 1)])
        with pytest.raises(BoxdynError, match="not integers|bool"):
            verify_attracting_block(bm, boxes)


class TestMorseGraph:
    def test_cycle_and_sink_order(self):
        bm = digraph_boxmap(3, [(0, 1), (1, 0), (1, 2), (2, 2)])
        mg = morse_graph(condensation(bm))
        assert len(mg.nodes) == 2
        # node 0 = component {c}=2? nodes sorted by smallest member: {0,1} then {2}
        assert mg.region_of(0).tolist() == [0, 1]
        assert mg.region_of(1).tolist() == [2]
        assert mg.leq(1, 0) and not mg.leq(0, 1)
        assert mg.minimal_nodes() == [1]

    def test_no_recurrence_empty_graph(self):
        bm = digraph_boxmap(3, [(0, 1), (1, 2)])
        mg = morse_graph(condensation(bm))
        assert mg.nodes == []

    def test_incomparable_self_loops(self):
        bm = digraph_boxmap(2, [(0, 0), (1, 1)])
        mg = morse_graph(condensation(bm))
        assert len(mg.nodes) == 2
        assert not mg.leq(0, 1) and not mg.leq(1, 0)

    def test_order_through_nonrecurrent_components(self):
        # 0<->1 -> 2 -> 3(self loop); 2 is a transient singleton
        bm = digraph_boxmap(4, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 3)])
        mg = morse_graph(condensation(bm))
        assert mg.leq(1, 0)  # node 1 = {3}, reachable from node 0 = {0,1}

    def test_partial_order_axioms(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 10))
            edges = {(int(rng.integers(0, n)), int(rng.integers(0, n)))
                     for _ in range(int(rng.integers(0, 3 * n)))}
            mg = morse_graph(condensation(digraph_boxmap(n, edges)))
            for a, b in mg.order:
                assert a != b  # irreflexive
                assert (b, a) not in mg.order  # antisymmetric
                for c in mg.nodes:
                    if (b, c) in mg.order:
                        assert (a, c) in mg.order  # transitive

    def test_order_soundness_witness_walk(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 10))
            edges = {(int(rng.integers(0, n)), int(rng.integers(0, n)))
                     for _ in range(int(rng.integers(0, 3 * n)))}
            mg = morse_graph(condensation(digraph_boxmap(n, edges)))
            closure = reachability_closure(n, edges)
            for a, b in mg.order:
                # some box of region b reaches some box of region a
                assert any(
                    closure[int(s), int(t)]
                    for s in mg.region_of(b)
                    for t in mg.region_of(a)
                )

    def test_hasse_edges_are_transitive_reduction(self):
        bm = digraph_boxmap(
            5, [(0, 0), (0, 1), (1, 2), (2, 2), (2, 3), (3, 4), (4, 4)]
        )
        mg = morse_graph(condensation(bm))
        # three nodes in a chain: node2={4} < node1={2} < node0={0}
        assert len(mg.nodes) == 3
        assert (2, 0) in mg.order  # transitive pair
        assert sorted(mg.hasse_edges()) == [(1, 0), (2, 1)]

    def test_dot_export(self):
        bm = digraph_boxmap(3, [(0, 1), (1, 0), (1, 2), (2, 2)])
        mg = morse_graph(condensation(bm))
        dot = mg.to_dot()
        assert dot.startswith("digraph")
        assert "n0" in dot and "n1" in dot
        assert "n0 -> n1;" in dot  # arrow follows the flow: top -> lower

    def test_json_round_trip(self):
        bm = digraph_boxmap(3, [(0, 1), (1, 0), (1, 2), (2, 2)])
        mg = morse_graph(condensation(bm))
        doc = json.loads(mg.to_json())
        back = morse_graph_from_jsonable(doc)
        assert back.component_ids == mg.component_ids
        assert back.order == mg.order
        assert all(
            np.array_equal(a, b) for a, b in zip(back.regions, mg.regions)
        )

    @pytest.mark.parametrize("edit, match", [
        (lambda doc: doc["order"].append([0, 9]), "order pair"),
        (lambda doc: doc["nodes"][0]["region"].append(10 ** 6), "outside"),
        (lambda doc: doc["nodes"][1].update(id=0), "node ids"),
        (lambda doc: doc["order"].extend([[0, 1], [1, 0]]), "both"),
        (lambda doc: doc["order"].extend([[0, 1], [1, 2]]), "but not"),
        (lambda doc: doc["nodes"][1]["region"].append(
            doc["nodes"][0]["region"][0]), "two nodes"),
        (lambda doc: doc["nodes"][1].update(component=37), "smallest box 1"),
        (lambda doc: doc["nodes"][1].update(region=[]), "empty region"),
        (lambda doc: doc["nodes"][1].update(region=[1.5]), "not integers"),
        (lambda doc: doc["nodes"][1].update(region=[1.0]), "not integers"),
        (lambda doc: doc["nodes"][1].update(region=[True]), "bool"),
        (lambda doc: doc["nodes"][0].update(id=0.0), "node ids"),
        (lambda doc: doc["nodes"][1].update(component=1.0), "component 1.0"),
        (lambda doc: doc["order"].append([False, True]), "order pair"),
        (lambda doc: doc["grid"].update(subdivisions=[6.9]),
         "subdivisions .* integers"),
        (lambda doc: doc["grid"].update(subdivisions=[6.0]),
         "subdivisions .* integers"),
        (lambda doc: doc["grid"].update(subdivisions=[True]),
         "subdivisions .* integers"),
        (lambda doc: doc["grid"].update(subdivisions=["6"]),
         "subdivisions .* integers"),
        (lambda doc: doc["grid"].update(lower=[False]), "lower .* numbers"),
        (lambda doc: doc["grid"].update(lower=["0"]), "lower .* numbers"),
        (lambda doc: doc["grid"].update(upper=[True]), "upper .* numbers"),
        (lambda doc: doc["grid"].update(upper=["64"]), "upper .* numbers"),
    ], ids=["order-names-missing-node", "region-off-grid", "duplicate-id",
            "order-cycle", "order-not-transitive", "shared-region",
            "component-not-smallest-box", "empty-region", "region-fraction",
            "region-float", "region-bool", "id-float", "component-float",
            "order-bools", "depth-fraction", "depth-float", "depth-bool",
            "depth-text", "lower-bool", "lower-text", "upper-bool",
            "upper-text"])
    def test_inconsistent_record_refused(self, edit, match):
        """A reloaded record whose order, regions or ids do not fit its
        nodes and grid is refused, not drawn or projected."""
        bm = digraph_boxmap(5, [(i, i) for i in range(5)], depth=6)
        doc = json.loads(morse_graph(condensation(bm)).to_json())
        assert len(doc["nodes"]) == 5 and bm.grid.box_count == 64
        edit(doc)
        with pytest.raises(BoxdynError, match=match):
            morse_graph_from_jsonable(doc)

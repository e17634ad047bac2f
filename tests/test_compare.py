import json

import numpy as np
import pytest

from boxdyn import (
    BoxdynError,
    CubicalGrid,
    MorseGraph,
    PhaseSpace,
    PiecewiseExample1D,
    build_boxmap,
    check_epimorphism,
    condensation,
    morse_graph,
    morse_graph_from_jsonable,
    project,
)
from boxdyn.compare import morse_tiles
from boxdyn.errors import GridMismatch


def piecewise_graph(depth, theta=1.5, rho=1e-3):
    grid = CubicalGrid(PhaseSpace([-2.0], [2.0]), [depth])
    bm = build_boxmap(grid, PiecewiseExample1D(theta), rho)
    return morse_graph(condensation(bm))


class TestCoarsenBoxes:
    def test_exact_shift(self):
        fine = piecewise_graph(10)
        coarse = piecewise_graph(8)
        # fine boxes 0..3 all lie in coarse box 0
        got = fine.grid.parents([0, 1, 2, 3], coarse.grid)
        assert got.tolist() == [0, 0, 0, 0]
        assert fine.grid.parents([4], coarse.grid).tolist() == [1]
        # project assigns each fine node the coarse tile holding the
        # parents of its region
        nu = project(fine, coarse)
        tiles = morse_tiles(coarse)
        assert sorted(nu.assignment) == fine.nodes
        for q, m in nu.assignment.items():
            assert tiles[m][fine.grid.parents(fine.region_of(q),
                                              coarse.grid)].all()

    def test_requires_nested_grids(self):
        fine = piecewise_graph(8)
        coarse = piecewise_graph(10)
        with pytest.raises(GridMismatch):
            fine.grid.parents([0], coarse.grid)
        with pytest.raises(GridMismatch):
            project(fine, coarse)

    def test_requires_same_space(self):
        fine = piecewise_graph(10)
        g = CubicalGrid(PhaseSpace([-1.0], [2.0]), [8])
        bm = build_boxmap(g, PiecewiseExample1D(1.5), 1e-3)
        coarse = morse_graph(condensation(bm))
        with pytest.raises(GridMismatch):
            project(fine, coarse)


class TestMorseTiles:
    def test_tiles_partition_union_of_downsets(self):
        mg = piecewise_graph(10)
        tiles = morse_tiles(mg)
        total = np.zeros(mg.grid.box_count, dtype=int)
        for q in mg.nodes:
            total += tiles[q].astype(int)
        covered = np.zeros(mg.grid.box_count, dtype=bool)
        for q in mg.nodes:
            covered[mg.downset_of(q)] = True
        assert (total[covered] == 1).all()
        assert (total[~covered] == 0).all()

    def test_tile_contains_own_region(self):
        mg = piecewise_graph(10)
        tiles = morse_tiles(mg)
        for q in mg.nodes:
            assert tiles[q][mg.region_of(q)].all()


class TestProject:
    def test_identity_projection(self):
        mg = piecewise_graph(10)
        nu = project(mg, mg)
        assert nu.well_defined and nu.surjective and nu.order_preserving
        assert nu.assignment == {q: q for q in mg.nodes}

    def test_fine_onto_coarse_piecewise(self):
        fine = piecewise_graph(12)
        coarse = piecewise_graph(8)
        nu = project(fine, coarse)
        assert nu.well_defined
        assert nu.order_preserving
        rep = check_epimorphism(nu, fine, coarse)
        assert rep["total"] and rep["order_preserving"]
        assert rep["is_epimorphism"] == nu.surjective

    def test_artificially_merged_coarse_target(self):
        """Collapsing two comparable coarse nodes keeps nu well defined."""
        fine = piecewise_graph(12)
        coarse = piecewise_graph(12)
        # merge every coarse node into one: single-node graph over all boxes
        allb = np.unique(np.concatenate([coarse.downset_of(q)
                                         for q in coarse.nodes]))
        merged = MorseGraph(coarse.grid, [0], [allb], [allb], [])
        nu = project(fine, merged)
        assert nu.well_defined and nu.surjective and nu.order_preserving
        assert set(nu.assignment.values()) == {0}

    def test_adversarial_assignment_flags_violating_pair(self):
        """A hand-built assignment that inverts a related pair is reported
        with the offending pair, not silently accepted."""
        from boxdyn.compare import NuMap
        fine = piecewise_graph(10)
        a, b = sorted(fine.order)[0]  # a < b in the fine graph
        swap = {q: q for q in fine.nodes}
        swap[a], swap[b] = b, a
        bad = NuMap(swap, [], fine, fine)
        rep = check_epimorphism(bad, fine, fine)
        assert not rep["order_preserving"]
        assert {"fine_pair": [a, b], "coarse_pair": [b, a]} in rep["order_violations"]
        assert not rep["is_epimorphism"]

    def test_unhit_coarse_node_reported(self):
        fine = piecewise_graph(12)
        coarse = piecewise_graph(12)
        # append a fake unreachable coarse node occupying no fine region:
        # steal a single transient box as its own region
        used = np.unique(np.concatenate([coarse.region_of(q)
                                         for q in coarse.nodes]))
        spare = next(b for b in range(coarse.grid.box_count)
                     if b not in set(used.tolist()))
        fake = MorseGraph(
            coarse.grid,
            coarse.component_ids + [spare],
            coarse.regions + [np.array([spare])],
            coarse.downsets + [np.array([spare])],
            coarse.order,
        )
        nu = project(fine, fake)
        if nu.well_defined:
            assert not nu.surjective
            rep = check_epimorphism(nu, fine, fake)
            assert rep["unhit_coarse_nodes"]

    def test_straddle_reported_with_candidates(self):
        """A fine 'region' spanning two coarse tiles is a straddle."""
        coarse = piecewise_graph(10)
        if len(coarse.nodes) < 2:
            pytest.skip("needs two coarse nodes")
        a, b = coarse.nodes[0], coarse.nodes[1]
        blob = np.concatenate([coarse.region_of(a), coarse.region_of(b)])
        fake_fine = MorseGraph(
            coarse.grid, [0], [blob], [blob], []
        )
        nu = project(fake_fine, coarse)
        assert not nu.well_defined
        assert nu.straddles and nu.straddles[0]["fine_node"] == 0
        assert len(nu.straddles[0]["coarse_candidates"]) >= 2

    def test_straddle_flags_are_the_checks_findings(self, tmp_path,
                                                     monkeypatch):
        """On a partial nu the flags and the record's epimorphism_check
        both are check_epimorphism's findings, so they cannot disagree,
        and the record holds each finding once."""
        from boxdyn import cli
        coarse = piecewise_graph(10)
        assert len(coarse.nodes) >= 2
        blob = np.concatenate([coarse.region_of(0), coarse.region_of(1)])
        fake_fine = MorseGraph(coarse.grid, [0], [blob], [blob], [])
        nu = project(fake_fine, coarse)
        facts = check_epimorphism(nu, fake_fine, coarse)
        doc = nu.to_jsonable()
        assert nu.straddles and not facts["total"]
        assert ([nu.well_defined, nu.surjective, nu.order_preserving]
                == [facts[k] for k in ("total", "surjective",
                                       "order_preserving")])
        assert sorted(doc) == ["assignment", "epimorphism_check", "note",
                               "straddles"]
        assert doc["epimorphism_check"] == facts
        assert doc["straddles"] == [{"fine_node": 0,
                                     "coarse_candidates": [0, 1]}]

        graphs = iter([(fake_fine, {}), (coarse, {})])
        monkeypatch.setattr(cli, "run_analysis", lambda cfg: next(graphs))
        nu = cli.cmd_compare(None, None, out=tmp_path)
        report = json.loads((tmp_path / "nu_report.json").read_text())
        assert report["epimorphism_check"] == nu.facts == facts

    def test_reloaded_coarse_graph_has_no_tiles(self):
        """A graph rebuilt from JSON has no downsets, so projecting onto
        it fails loudly instead of reporting every fine node a straddle."""
        fine = piecewise_graph(10)
        coarse = morse_graph_from_jsonable(piecewise_graph(8).to_jsonable())
        with pytest.raises(BoxdynError, match="no downsets"):
            project(fine, coarse)

    def test_json_roundtrip_fields(self):
        fine = piecewise_graph(10)
        nu = project(fine, fine)
        doc = nu.to_jsonable()
        facts = doc["epimorphism_check"]
        assert facts["total"] and facts["surjective"]
        assert doc["assignment"] == {str(q): q for q in fine.nodes}

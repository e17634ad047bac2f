import itertools
import tracemalloc

import numpy as np
import pytest

from boxdyn import (
    CallableOracle,
    CubicalGrid,
    GridMismatch,
    LeslieOracle,
    PhaseSpace,
    PiecewiseExample1D,
    build_boxmap,
    encloses,
)
from boxdyn import BoxdynError, outer_approx
from boxdyn.oracles import MapOracle
from boxdyn.outer_approx import _CHUNK_EDGES, BoxMap

from conftest import box_rect, boxes_intersecting, stacked


def identity_oracle(d=1):
    return CallableOracle(lambda x: x, lipschitz=1.0, dimension=d)


def constant_oracle(c):
    c = np.atleast_1d(np.asarray(c, dtype=float))
    return CallableOracle(lambda x: c, lipschitz=0.0, dimension=c.size)


class AxisOracle(MapOracle):
    """The identity of the plane, each coordinate's bounds of length 1 on
    the axis it does not depend on: (layers, 1) and (1, columns).  Its
    first coordinate is NaN on the layers whose low face is at least
    nan_layers_from; given nan_column_from = (x1, x2), its second is NaN
    on the columns whose low face is at least x2, in slabs that start at
    x1 or later."""

    def __init__(self, nan_layers_from=np.inf, nan_column_from=None):
        self.nan_layers_from = nan_layers_from
        self.nan_column_from = nan_column_from

    dimension = 2

    def lipschitz_upper_bound(self):
        return 1.0

    def eval_batch(self, points):
        return np.asarray(points, dtype=float)

    def enclosures(self, faces):
        f0, f1 = faces
        lo0 = np.where(f0[:-1] >= self.nan_layers_from, np.nan, f0[:-1])
        lo1 = f1[:-1]
        if self.nan_column_from is not None:
            x1, x2 = self.nan_column_from
            if f0[0] >= x1:
                lo1 = np.where(f1[:-1] >= x2, np.nan, f1[:-1])
        return ((lo0[:, None], lo1[None, :]),
                (f0[1:, None], f1[None, 1:]))


class TestBuildBoxmap:
    def test_identity_maps_to_closed_neighborhood(self):
        grid = CubicalGrid(PhaseSpace([0.0], [1.0]), [3])
        bm = build_boxmap(grid, identity_oracle(), 0.0)
        for k in range(grid.box_count):
            want = [j for j in range(grid.box_count) if abs(j - k) <= 1]
            assert list(bm.targets(k)) == want

    def test_identity_2d_neighborhood(self):
        grid = CubicalGrid(PhaseSpace([0.0, 0.0], [1.0, 1.0]), [2, 2])
        bm = build_boxmap(grid, identity_oracle(2), 0.0)
        k = grid.linearize((1, 1))
        want = sorted(
            grid.linearize((i, j)) for i in (0, 1, 2) for j in (0, 1, 2)
        )
        assert sorted(bm.targets(k)) == want

    def test_constant_oracle_targets_boxes_containing_value(self):
        grid = CubicalGrid(PhaseSpace([0.0], [1.0]), [2])
        bm = build_boxmap(grid, constant_oracle([0.6]), 0.0)
        for k in range(grid.box_count):
            assert list(bm.targets(k)) == [2]
        # a constant on a shared face hits the closed boxes on both sides
        bm = build_boxmap(grid, constant_oracle([0.5]), 0.0)
        for k in range(grid.box_count):
            assert list(bm.targets(k)) == [1, 2]

    def test_piecewise_box_containing_zero_self_targets(self):
        grid = CubicalGrid(PhaseSpace([-2.0], [2.0]), [6])
        oracle = PiecewiseExample1D(1.5)
        bm = build_boxmap(grid, oracle, 0.0)
        b = grid.linearize(grid.box_containing([0.0]))
        assert b in bm.targets(b)
        # brute-force cross-check of the full adjacency over all 64 boxes
        for k in range(grid.box_count):
            r = oracle.image_rect(box_rect(grid, (k,)))
            want = [grid.linearize(t) for t in boxes_intersecting(grid, r)]
            assert list(bm.targets(k)) == want

    def test_exterior_flagging(self):
        grid = CubicalGrid(PhaseSpace([0.0], [1.0]), [2])
        bm = build_boxmap(grid, constant_oracle([5.0]), 0.0)
        assert bm.exterior.all()
        assert all(bm.targets(k).size == 0 for k in range(grid.box_count))

    def test_negative_rho_rejected(self):
        grid = CubicalGrid(PhaseSpace([0.0], [1.0]), [2])
        with pytest.raises(ValueError):
            build_boxmap(grid, identity_oracle(), -0.1)

    def test_nan_rho_rejected(self):
        grid = CubicalGrid(PhaseSpace([0.0], [1.0]), [2])
        with pytest.raises(ValueError):
            build_boxmap(grid, identity_oracle(), float("nan"))

    def test_nan_enclosure_refused(self):
        """A NaN bound would read as escape; the first box with one is
        named.  Here the corner 0.75 of box 2 is the first NaN image."""
        grid = CubicalGrid(PhaseSpace([0.0], [1.0]), [2])
        oracle = CallableOracle(lambda x: x if x[0] < 0.6 else [np.nan],
                                lipschitz=1.0, dimension=1)
        with pytest.raises(BoxdynError, match=r"box \(2,\)"):
            build_boxmap(grid, oracle, 0.0)

    def test_nan_enclosure_in_a_later_slab_refused(self, monkeypatch):
        """The box is named in the grid, not by its row in its slab: with
        one first-axis layer per slab, the images at (1, 0.75) and
        (1, 1) are NaN and box (7, 2) is the first to meet one."""
        monkeypatch.setattr(outer_approx, "_SLAB_BOXES", 4)
        grid = CubicalGrid(PhaseSpace([0.0, 0.0], [1.0, 1.0]), [3, 2])
        assert len(outer_approx._slabs(grid)) == 8
        oracle = CallableOracle(
            lambda x: [np.nan, np.nan] if x[0] > 0.9 and x[1] > 0.6 else x,
            lipschitz=1.0, dimension=2)
        with pytest.raises(BoxdynError, match=r"box \(7, 2\)"):
            build_boxmap(grid, oracle, 0.0)
        # the same with bounds broadcast along an axis: a NaN in a
        # first-axis layer of bounds (layers, 1), and one in a column of
        # bounds (1, 4) that only slabs from x1 = 0.5 on return
        with pytest.raises(BoxdynError, match=r"box \(6, 0\)"):
            build_boxmap(grid, AxisOracle(nan_layers_from=0.75), 0.0)
        with pytest.raises(BoxdynError, match=r"box \(4, 2\)"):
            build_boxmap(grid, AxisOracle(nan_column_from=(0.5, 0.5)), 0.0)
        build_boxmap(grid, AxisOracle(), 0.0)

    def test_peak_memory_is_a_few_slabs(self, monkeypatch):
        """No enclosure of the whole grid is held: over 16 slabs, the
        traced peak stays below the box map's own arrays plus six slabs
        of enclosures (lo and hi)."""
        monkeypatch.setattr(outer_approx, "_SLAB_BOXES", 1024)
        grid = CubicalGrid(PhaseSpace([0.0, 0.0], [90.0, 70.0]), [7, 7])
        assert len(outer_approx._slabs(grid)) == 16
        oracle = LeslieOracle((23.5, 23.5))
        tracemalloc.start()
        try:
            bm = build_boxmap(grid, oracle, 0.03)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        own = bm.jmin.nbytes + bm.jmax.nbytes + bm.exterior.nbytes
        slab = 2 * 1024 * grid.dimension * 8
        assert peak < own + 6 * slab

    @pytest.mark.parametrize("theta", [(23.5, 23.5), (19.0, 27.0)])
    def test_leslie_second_coordinate_once_per_layer(self, theta,
                                                     monkeypatch):
        """Leslie's 0.7*x1 has one value per first-axis layer: its bounds
        in every slab have shape (layers, 1), so axis 1 is searched
        twice per layer, and its first coordinate's bounds are
        contiguous (layers, n1) arrays.  The ranges equal those of the
        bounds made full-shape."""
        monkeypatch.setattr(outer_approx, "_SLAB_BOXES", 3 * 64)
        grid = CubicalGrid(PhaseSpace([0.0, 0.0], [90.0, 70.0]), [4, 6])
        oracle = LeslieOracle(theta)
        shapes = []
        image_rects = oracle.image_rects

        def record(g, layers):
            lo, hi = image_rects(g, layers)
            shapes.append([x.shape for x in (*lo, *hi)])
            assert lo[0].flags.c_contiguous and hi[0].flags.c_contiguous
            return lo, hi

        monkeypatch.setattr(oracle, "image_rects", record)
        bm = build_boxmap(grid, oracle, 0.03)
        slabs = outer_approx._slabs(grid)
        assert len(slabs) == 6
        assert shapes == [[(b - a, 64), (b - a, 1)] * 2 for a, b in slabs]
        lo, hi = stacked(image_rects(grid, (0, grid.shape[0])), grid.shape)
        jmin, jmax, nonempty = grid.index_ranges_bulk(
            list(lo.T), list(hi.T), pad=0.03)
        assert np.array_equal(bm.jmin, jmin)
        assert np.array_equal(bm.jmax, jmax)
        assert np.array_equal(bm.exterior, ~nonempty)

    def test_infinite_enclosure_kept(self):
        """An infinite bound is sound: the box meets the grid up to its
        edge, or misses it and is exterior."""
        grid = CubicalGrid(PhaseSpace([0.0], [1.0]), [2])
        oracle = CallableOracle(lambda x: [np.inf] if x[0] > 0.6 else x,
                                lipschitz=1.0, dimension=1)
        bm = build_boxmap(grid, oracle, 0.0)
        assert bm.exterior.tolist() == [False, False, False, True]
        assert bm.targets(2).tolist() == [1, 2, 3]

    def test_dimension_mismatch(self):
        grid = CubicalGrid(PhaseSpace([0.0, 0.0], [1.0, 1.0]), [2, 2])
        with pytest.raises(GridMismatch):
            build_boxmap(grid, identity_oracle(1), 0.0)

    def test_determinism(self):
        grid = CubicalGrid(PhaseSpace([-2.0], [2.0]), [7])
        a = build_boxmap(grid, PiecewiseExample1D(1.5), 1e-3)
        b = build_boxmap(grid, PiecewiseExample1D(1.5), 1e-3)
        assert np.array_equal(a.jmin, b.jmin)
        assert np.array_equal(a.jmax, b.jmax)
        assert np.array_equal(a.exterior, b.exterior)

    def test_pointwise_soundness(self, rng):
        grid = CubicalGrid(PhaseSpace([-2.0], [2.0]), [6])
        oracle = PiecewiseExample1D(1.5)
        bm = build_boxmap(grid, oracle, 0.0)
        for _ in range(300):
            k = int(rng.integers(0, grid.box_count))
            r = box_rect(grid, (k,))
            x = r.lower + rng.random(1) * (r.upper - r.lower)
            y = oracle.eval(x)
            t = grid.linearize(grid.box_containing(y))
            assert t in bm.targets(k)


class TestEncloses:
    def grid(self):
        return CubicalGrid(PhaseSpace([-2.0], [2.0]), [5])

    def test_reflexive(self):
        bm = build_boxmap(self.grid(), PiecewiseExample1D(1.5), 0.01)
        assert encloses(bm, bm)

    def test_rho_monotone(self):
        g = self.grid()
        small = build_boxmap(g, PiecewiseExample1D(1.5), 0.0)
        big = build_boxmap(g, PiecewiseExample1D(1.5), 0.2)
        assert encloses(big, small)
        assert not encloses(small, big)

    def test_random_rho_pairs(self, rng):
        g = self.grid()
        oracle = PiecewiseExample1D(1.5)
        for _ in range(50):
            r1, r2 = sorted(rng.random(2) * 0.3)
            assert encloses(
                build_boxmap(g, oracle, r2), build_boxmap(g, oracle, r1)
            )

    def test_grid_mismatch(self):
        a = build_boxmap(self.grid(), PiecewiseExample1D(1.5), 0.0)
        other = CubicalGrid(PhaseSpace([-2.0], [2.0]), [4])
        b = build_boxmap(other, PiecewiseExample1D(1.5), 0.0)
        with pytest.raises(GridMismatch):
            encloses(a, b)


class TestAdjacency:
    def test_rows_are_the_target_ranges_across_chunks(self):
        # f(x) = 3x - 1 sends the outer boxes out of the unit square
        grid = CubicalGrid(PhaseSpace([0.0, 0.0], [1.0, 1.0]), [7, 7])
        bm = build_boxmap(grid, CallableOracle(lambda x: 3 * x - 1, 3.0, 2),
                          0.01)
        assert 0 < bm.exterior.sum() < grid.box_count
        indptr, indices = bm.expand(np.arange(grid.box_count))
        assert indices.size == bm.total_edges() > 2 * _CHUNK_EDGES
        assert indices.dtype == np.int32
        for k in range(grid.box_count):
            row = indices[indptr[k]:indptr[k + 1]]
            if bm.exterior[k]:
                assert row.size == 0
                continue
            axes = [np.arange(lo, hi + 1)
                    for lo, hi in zip(bm.jmin[k], bm.jmax[k])]
            want = np.ravel_multi_index(
                [g.ravel() for g in np.meshgrid(*axes, indexing="ij")],
                grid.shape)
            assert np.array_equal(row, want)  # sorted, in ravel order

    def test_any_rows_in_any_dimension(self, rng, monkeypatch):
        """Rows in any order, repeated or exterior, in d = 1, 2 and 3,
        with chunks of a few edges, against the enumerated rectangles."""
        monkeypatch.setattr(outer_approx, "_CHUNK_EDGES", 7)
        for depths in ((3,), (2, 3), (1, 2, 2), (0, 2)):
            grid = CubicalGrid(PhaseSpace([0.0] * len(depths),
                                          [1.0] * len(depths)), depths)
            n, shape = grid.box_count, np.array(grid.shape)
            a = rng.integers(0, shape, size=(n, len(depths)))
            b = rng.integers(0, shape, size=(n, len(depths)))
            bm = BoxMap(grid, jmin=np.minimum(a, b).astype(np.int32),
                        jmax=np.maximum(a, b).astype(np.int32),
                        exterior=rng.random(n) < 0.2)
            rows = rng.integers(0, n, size=2 * n)
            indptr, indices = bm.expand(rows)
            assert indptr.size == rows.size + 1
            for k, box in enumerate(rows):
                want = [] if bm.exterior[box] else [
                    grid.linearize(t) for t in itertools.product(*[
                        range(lo, hi + 1)
                        for lo, hi in zip(bm.jmin[box], bm.jmax[box])])]
                assert indices[indptr[k]:indptr[k + 1]].tolist() == want

import math

import numpy as np
import pytest

from boxdyn import (
    CubicalGrid,
    PhaseSpace,
    PointOutsideDomain,
    Rect,
)
from boxdyn.errors import DimensionMismatch, GridMismatch

from conftest import (box_rect, boxes_intersecting, contains_point,
                      grid_diameter)


def grid1d(lo=0.0, hi=1.0, depth=1):
    return CubicalGrid(PhaseSpace([lo], [hi]), [depth])


class TestBoxContaining:
    def test_left_half(self):
        assert grid1d(depth=1).box_containing([0.25]) == (0,)

    def test_boundary_tie_breaks_to_smaller_index(self):
        assert grid1d(depth=1).box_containing([0.5]) == (0,)

    def test_leslie_domain_example(self):
        grid = CubicalGrid(PhaseSpace([0.0, 0.0], [90.0, 70.0]), [9, 9])
        assert grid.box_containing([10.0, 0.0]) == (56, 0)

    def test_domain_corners(self):
        grid = CubicalGrid(PhaseSpace([0.0, 0.0], [1.0, 1.0]), [2, 2])
        assert grid.box_containing([0.0, 0.0]) == (0, 0)
        assert grid.box_containing([1.0, 1.0]) == (3, 3)

    def test_outside_domain_raises(self):
        with pytest.raises(PointOutsideDomain):
            grid1d().box_containing([1.5])
        with pytest.raises(PointOutsideDomain):
            grid1d().box_containing([-0.1])

    def test_random_points_are_contained(self, rng):
        grid = CubicalGrid(PhaseSpace([-1.0, 2.0], [3.0, 5.0]), [3, 4])
        lo = np.array(grid.space.lower)
        hi = np.array(grid.space.upper)
        for _ in range(300):
            p = lo + rng.random(2) * (hi - lo)
            b = grid.box_containing(p)
            assert contains_point(box_rect(grid, b), p)

    def test_face_points_resolve_lex_smallest(self):
        grid = CubicalGrid(PhaseSpace([0.0, 0.0], [1.0, 1.0]), [2, 2])
        # interior cross point shared by four boxes
        assert grid.box_containing([0.5, 0.5]) == (1, 1)


class TestBoxesIntersecting:
    def test_single_box_realization_touches_neighbors(self):
        grid = CubicalGrid(PhaseSpace([0.0, 0.0], [1.0, 1.0]), [2, 2])
        r = box_rect(grid, (1, 1))
        got = boxes_intersecting(grid, r)
        want = [(i, j) for i in (0, 1, 2) for j in (0, 1, 2)]
        assert got == want

    def test_interval_example(self):
        grid = grid1d(depth=2)
        assert boxes_intersecting(grid, Rect([0.3], [0.6])) == [(1,), (2,)]

    def test_rect_left_of_domain_is_empty(self):
        assert boxes_intersecting(grid1d(), Rect([-2.0], [-1.0])) == []

    def test_rect_clipped_to_domain(self):
        grid = grid1d(depth=2)
        got = boxes_intersecting(grid, Rect([0.9], [7.0]))
        assert got == [(3,)]

    def test_contains_own_box(self, rng):
        grid = CubicalGrid(PhaseSpace([0.0, -1.0], [2.0, 1.0]), [3, 2])
        for _ in range(100):
            b = tuple(int(rng.integers(0, s)) for s in grid.shape)
            assert b in boxes_intersecting(grid, box_rect(grid, b))

    def test_sorted_and_unique(self, rng):
        grid = CubicalGrid(PhaseSpace([0.0, 0.0], [1.0, 1.0]), [3, 3])
        for _ in range(100):
            a = rng.random(2) * 1.4 - 0.2
            b = a + rng.random(2) * 0.5
            got = boxes_intersecting(grid, Rect(a, b))
            assert got == sorted(set(got))


class TestIndexRangesBulk:
    @pytest.mark.parametrize("space, depths", [
        (PhaseSpace([0.0, 0.0], [90.0, 70.0]), [0, 3]),
        (PhaseSpace([0.0, 0.0], [90.0, 70.0]), [4, 5]),
        (PhaseSpace([-0.3, 0.1], [0.7, 1.3]), [3, 2]),
    ], ids=["depth-0-axis", "leslie", "odd"])
    @pytest.mark.parametrize("pad", [0.0, 0.03])
    def test_matches_closed_box_rule(self, space, depths, pad):
        """Box k meets [x, y] iff faces[k] <= y and x <= faces[k + 1]; a
        rectangle meets X iff some box meets it on every axis.  Keys are
        faces, their neighbouring floats, points beyond the domain and
        +-inf; the last two rectangles lie below and above X."""
        rng = np.random.default_rng(18)
        grid = CubicalGrid(space, depths)
        keys = []
        for f in grid.faces:
            pool = np.concatenate([
                f, np.nextafter(f, -np.inf), np.nextafter(f, np.inf),
                [f[0] - 1.0, f[-1] + 1.0, f[0] - pad, f[-1] + pad,
                 -np.inf, np.inf]])
            keys.append(np.sort(np.concatenate([
                rng.choice(pool, size=(400, 2)),
                [[-np.inf, f[0] - 1.0], [f[-1] + 1.0, np.inf]]]), axis=1))
        lo = np.stack([k[:, 0] for k in keys], axis=1)
        hi = np.stack([k[:, 1] for k in keys], axis=1)
        jmin, jmax, nonempty = grid.index_ranges_bulk(list(lo.T), list(hi.T),
                                                      pad=pad)
        assert jmin.dtype == jmax.dtype == np.int32
        met = 0
        for r in range(lo.shape[0]):
            meets = []
            for i, f in enumerate(grid.faces):
                x, y = lo[r, i] - pad, hi[r, i] + pad
                meets.append([k for k in range(grid.shape[i])
                              if f[k] <= y and x <= f[k + 1]])
            assert nonempty[r] == all(meets)
            if all(meets):
                met += 1
                assert jmin[r].tolist() == [m[0] for m in meets]
                assert jmax[r].tolist() == [m[-1] for m in meets]
        assert 0 < met < lo.shape[0]


def _face_keys(rng, faces, pad, shape):
    """Random keys of the given shape on an axis's faces, their
    neighbouring floats on both sides, the domain's ends moved by pad,
    points beyond the domain and +-inf, the last two as often as the
    faces, so some rectangles miss the domain; the low keys are at most
    the high ones."""
    beyond = [faces[0] - 1.0, faces[-1] + 1.0, -np.inf, np.inf]
    pool = np.concatenate([
        faces, np.nextafter(faces, -np.inf), np.nextafter(faces, np.inf),
        [faces[0] - pad, faces[-1] + pad], np.repeat(beyond, faces.size)])
    a, b = rng.choice(pool, size=(2,) + shape)
    return np.minimum(a, b), np.maximum(a, b)


class TestBroadcastBounds:
    """index_ranges_bulk searches each axis's bounds at their own shape
    and broadcasts the ranges; they equal those of the same bounds made
    full-shape."""

    @pytest.mark.parametrize("space, depths, box_shape", [
        (PhaseSpace([-2.0], [2.0]), [3], (9,)),
        (PhaseSpace([0.0, 0.0], [90.0, 70.0]), [4, 5], (6, 7)),
        (PhaseSpace([-0.3, 0.1, 0.0], [0.7, 1.3, 3.0]), [2, 3, 1],
         (3, 4, 5)),
    ], ids=["1d", "2d", "3d"])
    @pytest.mark.parametrize("pad", [0.0, 0.03])
    def test_broadcast_equals_full_shape(self, space, depths, box_shape,
                                         pad):
        """Every axis's bounds keep a random subset of the rectangles'
        axes (the others have length 1), so some are constant on all of
        them; the ranges go into out= views of rows n .. 2n of larger
        arrays, as build_boxmap's slabs do, and rows 0 .. n stay as
        they were."""
        rng = np.random.default_rng(25)
        grid = CubicalGrid(space, depths)
        d, n = grid.dimension, math.prod(box_shape)
        met = 0
        for _ in range(20):
            lo, hi = [], []
            for faces in grid.faces:
                keep = rng.random(len(box_shape)) < 0.5
                shape = tuple(m if k else 1 for m, k in zip(box_shape, keep))
                a, b = _face_keys(rng, faces, pad, shape)
                lo.append(a)
                hi.append(b)
            want = grid.index_ranges_bulk(
                [np.broadcast_to(x, box_shape).copy() for x in lo],
                [np.broadcast_to(x, box_shape).copy() for x in hi], pad=pad)
            jmin = np.full((2 * n, d), -1, dtype=np.int32)
            jmax = np.full((2 * n, d), -1, dtype=np.int32)
            nonempty = np.zeros(2 * n, dtype=bool)
            out = (jmin[n:].reshape(box_shape + (d,)),
                   jmax[n:].reshape(box_shape + (d,)),
                   nonempty[n:].reshape(box_shape))
            got = grid.index_ranges_bulk(lo, hi, pad=pad, out=out)
            assert all(g is o for g, o in zip(got, out))
            for w, g in zip(want, got):
                assert w.shape == g.shape
                assert np.array_equal(w, g)
            assert (jmin[:n] == -1).all() and (jmax[:n] == -1).all()
            assert not nonempty[:n].any()
            met += int(nonempty.sum())
        assert 0 < met < 20 * n

    def test_broadcast_shape_without_out(self):
        """Without out, the ranges take the bounds' common shape: a
        first-axis layer of bounds (3, 1) and a column of bounds (1, 4)
        give (3, 4) rectangles, the one-layer-per-value searches of a
        coordinate constant along an axis."""
        grid = CubicalGrid(PhaseSpace([0.0, 0.0], [1.0, 1.0]), [2, 2])
        f0, f1 = grid.faces
        jmin, jmax, nonempty = grid.index_ranges_bulk(
            [f0[:3, None], f1[None, :4]], [f0[1:4, None], f1[None, 1:5]])
        assert jmin.shape == jmax.shape == (3, 4, 2)
        assert nonempty.shape == (3, 4) and nonempty.all()
        # box (i, j)'s own rectangle meets boxes i - 1 .. i + 1 on axis 0
        assert jmin[..., 0].tolist() == [[0] * 4, [0] * 4, [1] * 4]
        assert jmax[..., 0].tolist() == [[1] * 4, [2] * 4, [3] * 4]
        assert jmin[..., 1].tolist() == [[0, 0, 1, 2]] * 3
        assert jmax[..., 1].tolist() == [[1, 2, 3, 3]] * 3
        # one array of bounds per axis: (n, d) rows are refused
        rects = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
        with pytest.raises(DimensionMismatch, match="3 lower and 3 upper"):
            grid.index_ranges_bulk(rects, rects)


class TestGeometry:
    def test_diameter_unit_square(self):
        grid = CubicalGrid(PhaseSpace([0.0, 0.0], [1.0, 1.0]), [0, 0])
        assert grid_diameter(grid) == pytest.approx(math.sqrt(2.0))

    def test_diameter_leslie_grid(self):
        grid = CubicalGrid(PhaseSpace([0.0, 0.0], [90.0, 70.0]), [9, 9])
        want = math.hypot(90 / 512, 70 / 512)
        assert grid_diameter(grid) == pytest.approx(want)
        assert abs(grid_diameter(grid) - 0.2227) < 5e-4

    def test_diameter_interval_depth10(self):
        grid = CubicalGrid(PhaseSpace([-2.0], [2.0]), [10])
        assert grid_diameter(grid) == 4.0 / 1024

    def test_volume_sum_equals_domain(self):
        grid = CubicalGrid(PhaseSpace([0.0, -3.0], [2.0, 4.0]), [3, 2])
        total = 0.0
        for b in np.ndindex(*grid.shape):
            r = box_rect(grid, b)
            total += float(np.prod(np.asarray(r.upper) - np.asarray(r.lower)))
        assert total == pytest.approx(2.0 * 7.0)

    def test_linearize_round_trip(self, rng):
        grid = CubicalGrid(PhaseSpace([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]), [2, 3, 1])
        for lin in rng.integers(0, grid.box_count, size=50):
            assert grid.linearize(grid.multi_index(int(lin))) == int(lin)

    def test_box_count(self):
        grid = CubicalGrid(PhaseSpace([0.0, 0.0], [1.0, 1.0]), [9, 9])
        assert grid.box_count == 1 << 18


NUMBERING_DEPTHS = [(4,), (3, 2), (2, 1, 2), (0, 3), (8, 7)]


def numbered_grid(depths):
    d = len(depths)
    return CubicalGrid(PhaseSpace([-1.0] * d, 2.0 + np.arange(d)), depths)


class TestBoxNumbering:
    """axis_indices, parents and children against numpy's C order and
    against the geometry of the boxes."""

    @pytest.mark.parametrize("depths", NUMBERING_DEPTHS)
    def test_axis_indices_are_unravel_index(self, rng, depths):
        grid = numbered_grid(depths)
        boxes = rng.integers(0, grid.box_count, size=200)
        want = np.unravel_index(boxes, grid.shape)
        got = grid.axis_indices(boxes)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
        assert grid.strides == tuple(
            int(np.prod(grid.shape[i + 1:])) for i in range(len(depths)))

    @pytest.mark.parametrize("depths", NUMBERING_DEPTHS)
    def test_parent_holds_the_box_centre(self, rng, depths):
        fine = numbered_grid(depths)
        coarse = numbered_grid([int(rng.integers(0, d + 1)) for d in depths])
        boxes = rng.integers(0, fine.box_count, size=60)
        got = fine.parents(boxes, coarse)
        for b, p in zip(boxes, got):
            centre = fine.space.lower + (np.asarray(fine.multi_index(b))
                                         + 0.5) * fine.widths
            assert p == coarse.linearize(coarse.box_containing(centre))

    @pytest.mark.parametrize("depths", NUMBERING_DEPTHS)
    def test_children_and_parents_invert(self, rng, depths):
        fine = numbered_grid(depths)
        coarse = numbered_grid([int(rng.integers(0, d + 1)) for d in depths])
        per_box = fine.box_count // coarse.box_count
        boxes = rng.integers(0, fine.box_count, size=20)
        parents = fine.parents(boxes, coarse)
        for b, p in zip(boxes, parents):
            kids = coarse.children([p], fine)
            assert kids.size == per_box and b in kids
            np.testing.assert_array_equal(fine.parents(kids, coarse), p)
        kids = coarse.children(np.unique(parents), fine)
        assert np.all(np.diff(kids) > 0)
        assert kids.size == np.unique(parents).size * per_box

    @pytest.mark.parametrize("depths", NUMBERING_DEPTHS)
    def test_grids_must_nest(self, depths):
        fine = numbered_grid(depths)
        elsewhere = CubicalGrid(PhaseSpace(fine.space.lower,
                                           fine.space.upper + 1.0), depths)
        deeper = numbered_grid([d + (i == 0) for i, d in enumerate(depths)])
        with pytest.raises(GridMismatch, match="different phase spaces"):
            fine.parents([0], elsewhere)
        with pytest.raises(GridMismatch, match="different phase spaces"):
            elsewhere.children([0], fine)
        with pytest.raises(GridMismatch, match="at least as deeply"):
            fine.parents([0], deeper)
        with pytest.raises(GridMismatch, match="at least as deeply"):
            deeper.children([0], fine)


class TestRect:
    def test_padded(self):
        r = Rect([0.0, 1.0], [1.0, 2.0]).padded(0.5)
        assert list(r.lower) == [-0.5, 0.5]
        assert list(r.upper) == [1.5, 2.5]

    def test_intersects_touching_counts(self):
        a = Rect([0.0], [1.0])
        b = Rect([1.0], [2.0])
        assert a.intersects(b)
        assert not a.intersects(Rect([1.1], [2.0]))

    def test_invalid_rect_raises(self):
        with pytest.raises(ValueError):
            Rect([1.0], [0.0])


class TestPhaseSpace:
    @pytest.mark.parametrize("lower, upper", [([np.nan], [1.0]),
                                              ([0.0], [np.inf]),
                                              ([-np.inf], [0.0])])
    def test_non_finite_bounds_raise(self, lower, upper):
        with pytest.raises(ValueError):
            PhaseSpace(lower, upper)

import math

import numpy as np
import pytest

from boxdyn import (
    CallableOracle,
    CubicalGrid,
    LeslieOracle,
    LipschitzDataOracle,
    MlpOracle,
    PhaseSpace,
    PiecewiseExample1D,
    Rect,
    build_boxmap,
    outer_approx,
)

from conftest import box_rect, half_diameter, leslie_enclosures, stacked


class TestLeslieEval:
    def test_origin_fixed_point(self):
        o = LeslieOracle((23.5, 23.5))
        assert np.allclose(o.eval([0.0, 0.0]), [0.0, 0.0])

    def test_eval_example(self):
        o = LeslieOracle((23.5, 23.5))
        got = o.eval([10.0, 0.0])
        assert got[0] == pytest.approx(235.0 * math.exp(-1.0))
        assert got[0] == pytest.approx(86.4517, abs=1e-4)
        assert got[1] == 7.0

    def test_second_coordinate_is_linear(self, rng):
        o = LeslieOracle((23.5, 23.5))
        for _ in range(100):
            x = rng.random(2) * [90.0, 70.0]
            assert o.eval(x)[1] == 0.7 * x[0]

    def test_eval_batch_matches_eval(self, rng):
        o = LeslieOracle((23.5, 23.5))
        pts = rng.random((40, 2)) * [90.0, 70.0]
        batch = o.eval_batch(pts)
        for p, v in zip(pts, batch):
            assert np.array_equal(v, o.eval(p))

    def test_lipschitz_bound_verified_by_jacobian_brute_force(self):
        """Maximize the closed-form Jacobian spectral norm over X.

        f(x) = ((t1 x1 + t2 x2) e^{-0.1(x1+x2)}, 0.7 x1), so
        dg/dxi = (ti - 0.1 (t1 x1 + t2 x2)) e^{-0.1(x1+x2)}.
        """
        t1 = t2 = 23.5
        xs = np.linspace(0.0, 90.0, 241)
        ys = np.linspace(0.0, 70.0, 241)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        e = np.exp(-0.1 * (X + Y))
        s = t1 * X + t2 * Y
        j11 = (t1 - 0.1 * s) * e
        j12 = (t2 - 0.1 * s) * e
        # spectral norm of [[j11, j12], [0.7, 0]] via the exact 2x2 formula
        a = j11 * j11 + j12 * j12 + 0.49
        det = -0.7 * j12
        norms = np.sqrt(0.5 * (a + np.sqrt(np.maximum(a * a - 4 * det * det, 0.0))))
        peak = float(norms.max())
        assert peak <= LeslieOracle((t1, t2)).lipschitz_upper_bound()
        assert peak == pytest.approx(33.24, abs=0.05)  # attained at the origin

    def test_soundness_of_image_rects(self, rng):
        # theta1 == theta2 takes the closed form, theta1 != theta2 the
        # interval product
        for theta in [(23.5, 23.5), (19.0, 27.0)]:
            o = LeslieOracle(theta)
            grid = CubicalGrid(PhaseSpace([0.0, 0.0], [90.0, 70.0]), [4, 4])
            lo, hi = stacked(o.enclosures(grid.faces), grid.shape)
            for _ in range(200):
                k = int(rng.integers(0, grid.box_count))
                r = box_rect(grid, grid.multi_index(k))
                x = r.lower + rng.random(2) * (r.upper - r.lower)
                y = o.eval(x)
                assert np.all(y >= lo[k]) and np.all(y <= hi[k])


@pytest.mark.parametrize("make", [
    lambda v: LeslieOracle((v, 23.5)),
    lambda v: LeslieOracle((23.5, v)),
    lambda v: PiecewiseExample1D(v),
    lambda v: LipschitzDataOracle([[0.0]], [[0.0]], v),
], ids=["leslie-theta1", "leslie-theta2", "piecewise-theta", "data-lipschitz"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_parameter_refused(make, value):
    with pytest.raises(ValueError, match="finite"):
        make(value)


@pytest.mark.parametrize("theta", [(), (23.5,), (23.5, 23.5, 99.0)],
                         ids=["none", "one", "three"])
def test_leslie_theta_length_refused(theta):
    """theta holds exactly two values: a third is not dropped."""
    with pytest.raises(ValueError, match="two values"):
        LeslieOracle(theta)


class TestPiecewise1D:
    def test_eval_branches(self):
        o = PiecewiseExample1D(1.5)
        assert o.eval([0.75])[0] == 0.5
        assert o.eval([0.2])[0] == 0.0
        assert o.eval([1.9])[0] == 1.5

    def test_lipschitz_is_two(self):
        assert PiecewiseExample1D(0.7).lipschitz_upper_bound() == 2.0

    def test_image_rect_exact(self):
        o = PiecewiseExample1D(1.5)
        r = o.image_rect(Rect([0.5], [0.75]))
        assert (r.lower[0], r.upper[0]) == (0.0, 0.5)

    def test_image_rects_match_endpoints(self, rng):
        o = PiecewiseExample1D(1.5)
        grid = CubicalGrid(PhaseSpace([-2.0], [2.0]), [6])
        lo, hi = stacked(o.enclosures(grid.faces), grid.shape)
        for k in range(grid.box_count):
            r = box_rect(grid, (k,))
            assert lo[k, 0] == o.eval(r.lower)[0]
            assert hi[k, 0] == o.eval(r.upper)[0]

    def test_soundness(self, rng):
        o = PiecewiseExample1D(1.5)
        grid = CubicalGrid(PhaseSpace([-2.0], [2.0]), [6])
        lo, hi = stacked(o.enclosures(grid.faces), grid.shape)
        for _ in range(200):
            k = int(rng.integers(0, grid.box_count))
            r = box_rect(grid, (k,))
            x = r.lower + rng.random(1) * (r.upper - r.lower)
            y = o.eval(x)[0]
            assert lo[k, 0] <= y <= hi[k, 0]


class TestMlp:
    def test_identity_layer_bound_is_one(self):
        o = MlpOracle([(np.eye(2), np.zeros(2))])
        # Frobenius sqrt(2) loses to sqrt(norm1 * norminf) = 1
        assert o.lipschitz_upper_bound() == 1.0

    def test_bound_is_product_of_layer_bounds(self):
        w1 = np.array([[2.0, 0.0], [0.0, 2.0]])
        w2 = np.array([[0.0, 3.0], [3.0, 0.0]])
        o = MlpOracle([(w1, np.zeros(2)), (w2, np.zeros(2))])
        assert o.lipschitz_upper_bound() == pytest.approx(
            MlpOracle._layer_bound(w1) * MlpOracle._layer_bound(w2)
        )

    def test_forward_pass(self):
        w1 = np.array([[1.0, -1.0], [0.0, 1.0]])
        b1 = np.array([-0.5, 0.0])
        w2 = np.eye(2)
        b2 = np.array([1.0, 2.0])
        o = MlpOracle([(w1, b1), (w2, b2)])
        # x=(1,0): layer1 -> (0.5, 0), relu no-op, layer2 -> (1.5, 2.0)
        assert np.allclose(o.eval([1.0, 0.0]), [1.5, 2.0])
        # x=(0,1): layer1 -> (-1.5, 1), relu -> (0, 1), +b2 -> (1, 3)
        assert np.allclose(o.eval([0.0, 1.0]), [1.0, 3.0])

    def test_piecewise_affine_on_activation_cells(self, rng):
        w1 = rng.normal(size=(8, 2))
        b1 = rng.normal(size=8)
        w2 = rng.normal(size=(2, 8))
        b2 = rng.normal(size=2)
        o = MlpOracle([(w1, b1), (w2, b2)])
        checked = 0
        while checked < 100:
            a = rng.normal(size=2)
            b = a + rng.normal(size=2) * 0.01
            mid = 0.5 * (a + b)
            signs = [np.sign(w1 @ p + b1) for p in (a, b, mid)]
            if not (np.array_equal(signs[0], signs[1])
                    and np.array_equal(signs[0], signs[2])):
                continue
            assert np.allclose(
                o.eval(mid), 0.5 * (o.eval(a) + o.eval(b)), atol=1e-9
            )
            checked += 1

    def test_lipschitz_bound_holds_empirically(self, rng):
        w1 = rng.normal(size=(6, 2))
        b1 = rng.normal(size=6)
        w2 = rng.normal(size=(2, 6))
        b2 = rng.normal(size=2)
        o = MlpOracle([(w1, b1), (w2, b2)])
        L = o.lipschitz_upper_bound()
        for _ in range(200):
            a = rng.normal(size=2)
            b = rng.normal(size=2)
            lhs = np.linalg.norm(o.eval(a) - o.eval(b))
            assert lhs <= L * np.linalg.norm(a - b) + 1e-9

    def test_dimension_chaining_validated(self):
        with pytest.raises(Exception):
            MlpOracle([(np.eye(2), np.zeros(3))])


class TestDataOracle:
    def test_single_sample_enclosure(self):
        o = LipschitzDataOracle([[0.0]], [[0.0]], 1.0)
        r = o.image_rect(Rect([1.0], [2.0]))
        # center 1.5, box half-diameter 0.5, nearest sample at distance 1.5
        assert r.lower[0] == pytest.approx(-2.0)
        assert r.upper[0] == pytest.approx(2.0)

    def test_no_pointwise_eval(self):
        o = LipschitzDataOracle([[0.0]], [[0.0]], 1.0)
        with pytest.raises(NotImplementedError):
            o.eval([0.5])

    def test_soundness_for_lipschitz_interpolant(self, rng):
        """image_rect must contain f(box) for an L-Lipschitz f sampled at xs."""
        f = lambda x: np.sin(2.0 * x)  # Lipschitz constant 2
        xs = rng.random((30, 1)) * 4.0 - 2.0
        o = LipschitzDataOracle(xs, f(xs), 2.0)
        grid = CubicalGrid(PhaseSpace([-2.0], [2.0]), [5])
        lo, hi = stacked(o.enclosures(grid.faces), grid.shape)
        for _ in range(200):
            k = int(rng.integers(0, grid.box_count))
            r = box_rect(grid, (k,))
            x = r.lower + rng.random(1) * (r.upper - r.lower)
            y = float(f(x)[0])
            assert lo[k, 0] - 1e-12 <= y <= hi[k, 0] + 1e-12


def _mlp(rng):
    return MlpOracle([(rng.normal(size=(8, 2)), rng.normal(size=8)),
                      (rng.normal(size=(2, 8)), rng.normal(size=2))])


def _data(rng):
    xs = rng.random((50, 2)) * [90.0, 70.0]
    return LipschitzDataOracle(xs, LeslieOracle().eval_batch(xs), 34.0)


LESLIE_SPACE = PhaseSpace([0.0, 0.0], [90.0, 70.0])
# face coordinates that are not dyadic fractions, so box widths vary in
# the last bit
ODD_SPACE = PhaseSpace([-0.3, 0.1], [0.7, 1.3])


# one oracle of each kind, with the space and depths of its test grid
EVERY_ORACLE = pytest.mark.parametrize("make, space, depths", [
    (lambda rng: LeslieOracle((23.5, 23.5)), LESLIE_SPACE, [4, 5]),
    (lambda rng: LeslieOracle((19.0, 27.0)), LESLIE_SPACE, [4, 5]),
    (lambda rng: PiecewiseExample1D(1.5), PhaseSpace([-2.0], [2.0]), [6]),
    (_mlp, ODD_SPACE, [4, 5]),
    (lambda rng: CallableOracle(np.cos, 1.0, 2), ODD_SPACE, [3, 3]),
    (_data, LESLIE_SPACE, [4, 5]),
], ids=["leslie-equal", "leslie-unequal", "piecewise", "mlp", "callable",
        "data"])


class TestImageRectGeneric:
    @EVERY_ORACLE
    def test_image_rect_is_row_of_image_rects(self, make, space, depths):
        """Enclosures are box by box: the one-box image_rect of each box
        is that box's row of enclosures over the whole grid."""
        o = make(np.random.default_rng(5))
        grid = CubicalGrid(space, depths)
        lo, hi = stacked(o.enclosures(grid.faces), grid.shape)
        assert lo.shape == hi.shape == (grid.box_count, grid.dimension)
        for k in range(grid.box_count):
            r = o.image_rect(box_rect(grid, grid.multi_index(k)))
            assert np.array_equal(r.lower, lo[k])
            assert np.array_equal(r.upper, hi[k])

    @EVERY_ORACLE
    def test_boxmap_is_the_same_for_every_slab_size(self, make, space,
                                                    depths, monkeypatch):
        """build_boxmap fills its ranges slab by slab, asking image_rects
        once for each slab of _slabs, in order: one and three first-axis
        layers per slab give the ranges and the exterior of the default
        (one slab on these grids)."""
        o = make(np.random.default_rng(5))
        grid = CubicalGrid(space, depths)
        calls = []
        image_rects = o.image_rects
        monkeypatch.setattr(o, "image_rects", lambda g, layers:
                            calls.append(layers) or image_rects(g, layers))
        want = build_boxmap(grid, o, 0.03)
        assert calls == [(0, grid.shape[0])]
        layer = grid.box_count // grid.shape[0]
        for layers_per_slab in (1, 3):
            monkeypatch.setattr(outer_approx, "_SLAB_BOXES",
                                layers_per_slab * layer)
            slabs = [(a, min(a + layers_per_slab, grid.shape[0]))
                     for a in range(0, grid.shape[0], layers_per_slab)]
            assert len(slabs) >= 2
            calls.clear()
            got = build_boxmap(grid, o, 0.03)
            assert calls == outer_approx._slabs(grid) == slabs
            assert np.array_equal(got.jmin, want.jmin)
            assert np.array_equal(got.jmax, want.jmax)
            assert np.array_equal(got.exterior, want.exterior)

    def test_degenerate_box_has_zero_padding(self):
        o = LeslieOracle((23.5, 23.5))
        p = np.array([3.0, 4.0])
        r = o.image_rect(Rect(p, p))
        assert np.allclose(r.lower, r.upper)
        assert np.allclose(r.lower, o.eval(p))

    def test_monotone_under_box_nesting(self, rng):
        o = LeslieOracle((23.5, 23.5))
        for _ in range(50):
            a = rng.random(2) * [80.0, 60.0]
            b = a + rng.random(2) * 5.0 + 0.1
            outer = Rect(a, b)
            inner = Rect(a + 0.25 * (b - a), b - 0.25 * (b - a))
            ri = o.image_rect(inner)
            slack = o.lipschitz_upper_bound() * half_diameter(inner)
            ro = o.image_rect(outer).padded(slack)
            assert np.all(ri.lower >= ro.lower - 1e-9)
            assert np.all(ri.upper <= ro.upper + 1e-9)


class TestLeslieEnclosures:
    @pytest.mark.parametrize("theta", [(23.5, 23.5), (19.0, 27.0),
                                       (-5.0, -5.0), (-3.0, 4.0)])
    @pytest.mark.parametrize("space", [LESLIE_SPACE, ODD_SPACE],
                             ids=["leslie", "odd"])
    def test_enclosures_match_box_by_box_reference(self, theta, space,
                                                   monkeypatch):
        """Bit for bit: the vertex sums are the additions the box-by-box
        form makes.  On LESLIE_SPACE at depths (4, 5) the faces 5.625
        and 4.375 sum to exactly 10, the peak of g."""
        o = LeslieOracle(theta)
        for depths in ([0, 0], [0, 3], [3, 0], [4, 5], [7, 6]):
            grid = CubicalGrid(space, depths)
            want = leslie_enclosures(theta, grid.faces)
            got = stacked(o.enclosures(grid.faces), grid.shape)
            for w, g in zip(want, got):
                assert g.shape == (grid.box_count, 2)
                assert np.array_equal(w, g)
        if space is LESLIE_SPACE:
            faces = CubicalGrid(space, [4, 5]).faces
            assert (faces[0][:, None] + faces[1] == 10.0).any()
        # a grid of five slabs of three first-axis layers, and one layer;
        # each slab's enclosures are its rows of the reference
        grid = CubicalGrid(space, [4, 3])
        monkeypatch.setattr(outer_approx, "_SLAB_BOXES", 3 * 8)
        assert len(outer_approx._slabs(grid)) == 6
        want = leslie_enclosures(theta, grid.faces)
        for a, b in outer_approx._slabs(grid):
            for w, g in zip(want, stacked(o.image_rects(grid, (a, b)),
                                          (b - a, 8))):
                assert np.array_equal(w[a * 8:b * 8], g)

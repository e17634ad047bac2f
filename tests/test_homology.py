import itertools

import numpy as np
import pytest

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
    condensation,
    index_pair,
    induced_homology_map,
    morse_graph,
)
from boxdyn import homology
from boxdyn.errors import BoxdynError, CarrierNotAcyclic
from boxdyn.homology import _contract
from boxdyn.oracles import MapOracle
from boxdyn.outer_approx import BoxMap

from conftest import (apply_chain_map, boundary_chains, boundary_matrix,
                      brute_betti, carrier, cell_coface_boxes, cell_faces,
                      cells, charpoly_mod_p, decode, eager_reduction,
                      rank_mod_p, reference_induced_map, solve_mod_p)


def grid1d(depth=3, lo=0.0, hi=1.0):
    return CubicalGrid(PhaseSpace([lo], [hi]), [depth])


def grid2d(dx=2, dy=2):
    return CubicalGrid(PhaseSpace([0.0, 0.0], [1.0, 1.0]), [dx, dy])


class TestCells:
    def test_box_cells_count(self):
        """The closure of one box is its 3^d faces, C(d, k) 2^(d-k) of
        dimension k; with P0 empty every one is a cell of the complex."""
        for g, j, counts in ((grid2d(), (1, 2), [4, 4, 1]),
                             (CubicalGrid(PhaseSpace([0.0] * 3, [1.0] * 3),
                                          [2, 2, 2]), (3, 0, 2),
                              [8, 12, 6, 1])):
            cx = PairComplex(g, [g.linearize(j)], set())
            named = cells(cx)
            assert len(cx.closure) == 3 ** g.dimension
            assert len(named) == 3 ** g.dimension
            assert [sum(1 for _, m in named if bin(m).count("1") == k)
                    for k in range(g.dimension + 1)] == counts
            assert ((tuple(a + 1 for a in j), 0) in named
                    and (j, (1 << g.dimension) - 1) in named)

    def test_boundary_of_boundary_vanishes(self, rng):
        p = 5
        for _ in range(200):
            d = int(rng.integers(1, 4))
            anchor = tuple(int(v) for v in rng.integers(0, 5, size=d))
            mask = int(rng.integers(1, 1 << d))
            acc = {}
            for face, s1 in cell_faces((anchor, mask)):
                for face2, s2 in cell_faces(face):
                    acc[face2] = (acc.get(face2, 0) + s1 * s2) % p
            assert all(v == 0 for v in acc.values())

    def test_closure_boundary_matches_reference(self):
        """Decoded, the faces and signs of every closure cell are its
        cell_faces, and the quotient boundaries drop exactly the faces
        outside the quotient; random pairs in dimensions 1-3."""
        rng = np.random.default_rng(11)
        for depths in ([4], [2, 3], [1, 2, 1]):
            g = CubicalGrid(PhaseSpace([0.0] * len(depths), [1.0] * len(depths)),
                            depths)
            for _ in range(10):
                p1 = rng.choice(g.box_count, size=rng.integers(1, g.box_count + 1),
                                replace=False)
                p0 = [int(b) for b in p1 if rng.random() < 0.3]
                cx = PairComplex(g, p1, p0)
                for row, code in enumerate(cx.closure):
                    faces, signs = cx.faces[row], cx.signs[row]
                    got = {decode(cx, cx.closure[f]): int(s)
                           for f, s in zip(faces, signs) if f >= 0}
                    assert got == dict(cell_faces(decode(cx, code)))
                    assert not signs[faces < 0].any()
                got = [{j: s % cx.prime for j, s in bd.items()}
                       for bd in map(cx.boundary, range(len(cx)))]
                assert got == boundary_chains(cx)

    def test_closure_cofaces_and_quotient_match_reference(self):
        """Against scalar references on random pairs in dimensions 1-3:
        the closure is every face of a region box; coface slot k holds
        the box at anchor - bits(k) where cell_coface_boxes has it, else
        -1; the quotient keeps a cell iff it has a coface in P1 \\ P0 and
        none in P0; qfaces holds the positions of its faces and qcof is
        its transpose.  The pairs include region boxes on the grid's
        boundary and P0 boxes next to the region."""
        rng = np.random.default_rng(12)
        on_boundary = beside_p0 = 0
        for depths in ([3], [2, 2], [1, 2, 1]):
            d = len(depths)
            g = CubicalGrid(PhaseSpace([0.0] * d, [1.0] * d), depths)
            for _ in range(10):
                p1 = rng.choice(g.box_count, size=rng.integers(1, g.box_count + 1),
                                replace=False)
                p0 = {int(b) for b in p1 if rng.random() < 0.4}
                region = {int(b) for b in p1} - p0
                cx = PairComplex(g, p1, p0)
                faces = set()
                for b in region:
                    j = g.multi_index(b)
                    on_boundary += any(v in (0, s - 1) for v, s in zip(j, g.shape))
                    for o, m in itertools.product(range(1 << d), repeat=2):
                        if not o & m:
                            faces.add((tuple(v + (o >> i & 1)
                                             for i, v in enumerate(j)), m))
                # sorted by dimension, then anchor, then mask
                assert [decode(cx, c) for c in cx.closure] == sorted(
                    faces, key=lambda c: (bin(c[1]).count("1"), c[0], c[1]))

                kept = []
                for row, code in enumerate(cx.closure):
                    anchor, mask = decode(cx, code)
                    boxes = {g.linearize(b)
                             for b in cell_coface_boxes((anchor, mask), g.shape)}
                    want = []
                    for k in range(1 << d):
                        b = tuple(a - (k >> i & 1) for i, a in enumerate(anchor))
                        box = (g.linearize(b) if not mask & k and all(
                            0 <= v < s for v, s in zip(b, g.shape)) else -1)
                        want.append(box)
                    assert cx.cofaces[row].tolist() == want
                    assert set(want) - {-1} == boxes
                    beside_p0 += bool(boxes & region) and bool(boxes & p0)
                    if boxes & region and not boxes & p0:
                        kept.append(row)
                assert cx.rows.tolist() == kept

                qfaces = cx.position[cx.faces[cx.rows]]
                assert np.array_equal(cx.qfaces, qfaces)
                qcof = np.full(qfaces.shape, -1)
                for j, s in zip(*np.nonzero(qfaces >= 0)):
                    assert qcof[qfaces[j, s], s] == -1
                    qcof[qfaces[j, s], s] = j
                assert np.array_equal(cx.qcof, qcof)
        assert on_boundary and beside_p0


class TestElimination:
    def test_solve_is_none_exactly_when_inconsistent(self, rng):
        """Random A (low rank included) and b over F_5, empty shapes too:
        solve_mod_p is None iff rank([A | b]) > rank(A), and otherwise
        returns an exact solution."""
        p = 5
        outcomes = set()
        for _ in range(300):
            rows, cols, k = (int(v) for v in rng.integers(0, 5, size=3))
            a = (rng.integers(0, p, size=(rows, k))
                 @ rng.integers(0, p, size=(k, cols))) % p
            b = rng.integers(0, p, size=rows)
            x = solve_mod_p(a, b, p)
            consistent = (rank_mod_p(np.column_stack([a, b]), p)
                          == rank_mod_p(a, p))
            assert (x is not None) == consistent
            if consistent:
                assert x.shape == (cols,)
                assert np.array_equal(a @ x % p, b)
            outcomes.add((x is None, rows == 0, cols == 0))
        assert (True, False, True) in outcomes  # nonzero b, no columns
        assert (False, True, False) in outcomes  # no rows
        assert (True, False, False) in outcomes and \
            (False, False, False) in outcomes


class TestPairComplex:
    def test_full_grid_contractible(self):
        g = grid2d()
        cx = PairComplex(g, range(g.box_count), set())
        basis = HomologyBasis(cx)
        assert basis.betti_numbers(2) == [1, 0, 0]

    def test_interval_pair_example(self):
        # [-2,2] rel [-2,0.25] u [1.25,2] at width 0.25: H_0 = 0, H_1 = F
        g = CubicalGrid(PhaseSpace([-2.0], [2.0]), [4])
        p0 = list(range(0, 9)) + list(range(13, 16))
        cx = PairComplex(g, range(16), p0)
        basis = HomologyBasis(cx)
        assert basis.betti_numbers(1) == [0, 1]

    def test_attracting_interval_absolute(self):
        # ([-2, 0.25], {}) has the homology of a point
        g = CubicalGrid(PhaseSpace([-2.0], [2.0]), [4])
        cx = PairComplex(g, range(0, 9), set())
        assert HomologyBasis(cx).betti_numbers(1) == [1, 0]

    def test_p1_equals_p0_trivial(self):
        g = grid2d()
        boxes = set(range(g.box_count))
        cx = PairComplex(g, boxes, boxes)
        assert HomologyBasis(cx).betti_numbers(2) == [0, 0, 0]

    def test_empty_p1(self):
        g = grid2d()
        cx = PairComplex(g, set(), set())
        assert HomologyBasis(cx).betti_numbers(2) == [0, 0, 0]

    @pytest.mark.parametrize("prime", [1, 6, 65537, 7.9, True])
    def test_prime_rule(self, prime):
        """The field order is a prime below 2^16, so that the int64 sums
        of the index matrix cannot overflow, given as an integer: 7.9 is
        not truncated to 7, nor True read as 1."""
        with pytest.raises(BoxdynError, match="prime below 2\\^16"):
            PairComplex(grid2d(), [0], set(), prime=prime)

    def test_largest_allowed_prime(self):
        assert PairComplex(grid2d(), [0], set(), prime=65521).prime == 65521

    @pytest.mark.parametrize("extra", [-1, 16, -2, -17])
    def test_box_outside_the_grid_refused(self, extra):
        """-1 and 16 would land on the mask's sentinel slot, and other
        negative indices would wrap around."""
        g = grid2d()
        with pytest.raises(BoxdynError, match="outside the grid"):
            PairComplex(g, list(range(16)) + [extra], [extra])
        with pytest.raises(BoxdynError, match="outside the grid"):
            PairComplex(g, [extra], set())

    def test_annulus_ring(self):
        g = grid2d(2, 2)  # 4x4 boxes; ring = all but the 2x2 middle... use 4x4 minus center 2x2
        ring = [g.linearize((i, j)) for i in range(4) for j in range(4)
                if not (1 <= i <= 2 and 1 <= j <= 2)]
        cx = PairComplex(g, ring, set())
        assert HomologyBasis(cx).betti_numbers(2) == [1, 1, 0]

    def test_boundary_squared_zero_on_built_complexes(self, rng):
        for _ in range(30):
            g = grid2d(2, 2)
            boxes = set(
                int(b) for b in rng.choice(16, size=rng.integers(1, 12),
                                           replace=False)
            )
            p0 = set(int(b) for b in boxes if rng.random() < 0.3)
            cx = PairComplex(g, boxes, p0)
            for dim in range(1, 3):
                d1 = boundary_matrix(cx, dim)
                d2 = boundary_matrix(cx, dim + 1)
                if d1.size and d2.size:
                    assert not ((d1 @ d2) % cx.prime).any()

    def test_ranks_match_dense_oracle(self, rng):
        for _ in range(60):
            g = grid2d(2, 2)
            boxes = set(
                int(b) for b in rng.choice(16, size=rng.integers(1, 14),
                                           replace=False)
            )
            p0 = set(int(b) for b in boxes if rng.random() < 0.35)
            cx = PairComplex(g, boxes, p0)
            assert len(cx) <= 200
            basis = HomologyBasis(cx)
            assert basis.betti_numbers(2) == brute_betti(cx, 2)

    def test_only_representatives_keep_v_columns(self):
        """Once the reduction ends, the stored V columns are the
        representatives: as many as the Betti numbers sum to."""
        rng = np.random.default_rng(12)
        for _ in range(30):
            g = grid2d(2, 2)
            boxes = rng.choice(16, size=rng.integers(1, 14), replace=False)
            p0 = [int(b) for b in boxes if rng.random() < 0.35]
            basis = HomologyBasis(PairComplex(g, boxes, p0))
            stored = sum(len(cols) for cols in basis._V.values())
            assert stored == sum(basis.betti_numbers(2))

    def test_reduction_matches_eager_reference(self):
        """The lazy, heap-ordered reduction finds the pivots and the
        representatives of the eager max() reduction; random pairs in
        dimensions 1-3, an empty region and a nonempty P0 among them."""
        rng = np.random.default_rng(13)
        seen = set()
        for depths in ([4], [2, 3], [1, 2, 1], [2, 2, 2]):
            g = CubicalGrid(PhaseSpace([0.0] * len(depths), [1.0] * len(depths)),
                            depths)
            for trial in range(12):
                p1 = rng.choice(g.box_count, size=rng.integers(1, g.box_count + 1),
                                replace=False)
                p0 = p1 if trial == 0 else [int(b) for b in p1 if rng.random() < 0.3]
                cx = PairComplex(g, p1, p0)
                basis = HomologyBasis(cx)
                pivot_of, reps = eager_reduction(cx)
                assert {r: c for r, c in enumerate(basis._pivot.tolist())
                        if c >= 0} == pivot_of
                for dim in range(g.dimension + 1):
                    assert basis.representatives(dim) == reps[dim]
                seen.add((len(cx) == 0, len(p0) > 0, len(basis._R) > 0))
        assert {(True, True, False), (False, True, True)} <= seen

    def test_eviction_matches_eager_reference(self):
        """A column whose reduction ends on the low that a later column
        took as it stood takes that row, and the later column is then
        eliminated in its turn.  Random 3-D pairs, a few of which reach
        that case, match the eager reduction."""
        rng = np.random.default_rng(17)
        evictions = 0
        for trial in range(400):
            g = CubicalGrid(PhaseSpace([0.0] * 3, [1.0] * 3),
                            [2, 2, 2 - trial % 2])
            p1 = rng.choice(g.box_count, size=rng.integers(1, g.box_count + 1),
                            replace=False)
            p0 = [int(b) for b in p1 if rng.random() < 0.3]
            cx = PairComplex(g, p1, p0)
            basis = HomologyBasis(cx)
            pivot_of, reps = eager_reduction(cx)
            assert {r: c for r, c in enumerate(basis._pivot.tolist())
                    if c >= 0} == pivot_of
            for dim in range(4):
                assert basis.representatives(dim) == reps[dim]
            # a live column k whose original low is the pivot of an
            # earlier column j that did not start with that low
            lows = cx.qfaces.max(axis=1).tolist()
            evictions += any(
                k not in pivot_of and pivot_of.get(lows[k], k) < k
                and lows[pivot_of[lows[k]]] != lows[k] for k in range(len(cx)))
        assert evictions > 0

    def test_projection_of_representatives(self):
        """project(rep_i) and project(rep_i + del c) are the unit vector
        e_i, c a random chain one dimension up; a chain that is not a
        cycle is refused."""
        rng = np.random.default_rng(14)
        for depths in ([4], [2, 3], [2, 2, 2]):
            g = CubicalGrid(PhaseSpace([0.0] * len(depths), [1.0] * len(depths)),
                            depths)
            for _ in range(10):
                p1 = rng.choice(g.box_count, size=rng.integers(1, g.box_count + 1),
                                replace=False)
                p0 = [int(b) for b in p1 if rng.random() < 0.3]
                cx = PairComplex(g, p1, p0)
                basis = HomologyBasis(cx)
                bd = boundary_chains(cx)
                p = cx.prime
                for dim in range(g.dimension + 1):
                    reps = basis.representatives(dim)
                    up = np.flatnonzero(cx.dims == dim + 1)
                    for i, rep in enumerate(reps):
                        unit = np.eye(len(reps), dtype=np.int64)[i]
                        assert np.array_equal(basis.project(rep, dim), unit)
                        chain = dict(rep)
                        for c in rng.choice(up, size=min(4, up.size), replace=False):
                            coef = int(rng.integers(1, p))
                            for face, s in bd[c].items():
                                chain[face] = (chain.get(face, 0) + coef * s) % p
                        assert np.array_equal(basis.project(chain, dim), unit)
                    broken = [j for j in np.flatnonzero(cx.dims == dim) if bd[j]]
                    if broken:
                        with pytest.raises(BoxdynError, match="not a relative cycle"):
                            basis.project({int(broken[0]): 1}, dim)

    def test_representatives_are_cycles(self, rng):
        g = grid2d(2, 2)
        ring = [g.linearize((i, j)) for i in range(4) for j in range(4)
                if not (1 <= i <= 2 and 1 <= j <= 2)]
        cx = PairComplex(g, ring, set())
        basis = HomologyBasis(cx)
        bd = boundary_chains(cx)
        for dim in range(3):
            for rep in basis.representatives(dim):
                acc = {}
                for cell, v in rep.items():
                    for face, bv in bd[cell].items():
                        acc[face] = (acc.get(face, 0) + v * bv) % cx.prime
                assert all(x == 0 for x in acc.values())

    def test_projection_of_boundary_is_zero(self):
        g = grid2d(2, 2)
        ring = [g.linearize((i, j)) for i in range(4) for j in range(4)
                if not (1 <= i <= 2 and 1 <= j <= 2)]
        cx = PairComplex(g, ring, set())
        basis = HomologyBasis(cx)
        two_cell = next(j for j, (_, m) in enumerate(cells(cx))
                        if bin(m).count("1") == 2)
        coords = basis.project(boundary_chains(cx)[two_cell], 1)
        assert not coords.any()


class TestContraction:
    def test_contract_solves_boundary_equation(self, rng):
        """del(contract(z)) == z for augmentation-zero vertex chains and
        cycles inside a rectangle block."""
        p = 5
        complexes = {}  # d -> full complex on [0, 8]^d, code of each cell
        for _ in range(200):
            d = int(rng.integers(1, 3 + 1))
            if d not in complexes:
                g = CubicalGrid(PhaseSpace([0.0] * d, [1.0] * d), [3] * d)
                cx = PairComplex(g, range(g.box_count), set(), p)
                complexes[d] = cx, {decode(cx, c): int(c) for c in cx.closure}
            cx, code_of = complexes[d]
            lo = rng.integers(0, 3, size=d)
            hi = lo + rng.integers(1, 4, size=d)
            # random 0-chain with zero augmentation, supported on vertices
            verts = [tuple(int(rng.integers(lo[i], hi[i] + 1)) for i in range(d))
                     for _ in range(4)]
            chain = {}
            for k, v in enumerate(verts[:-1]):
                chain[(v, 0)] = (chain.get((v, 0), 0) + 1) % p
                w = verts[k + 1]
                chain[(w, 0)] = (chain.get((w, 0), 0) - 1) % p
            chain = {c: v for c, v in chain.items() if v}
            sol = _contract({code_of[c]: v for c, v in chain.items()},
                            lo.tolist(), cx)
            acc = {}
            for code, v in sol.items():
                for face, bv in cell_faces(decode(cx, code)):
                    acc[face] = (acc.get(face, 0) + v * bv) % p
            acc = {c: v for c, v in acc.items() if v}
            assert acc == chain


def identity_map(depth=3):
    g = grid1d(depth)
    return build_boxmap(g, CallableOracle(lambda x: x, 1.0, 1), 0.0), g


class TestCarrier:
    def test_top_cell_carrier_is_target_list(self):
        bm, g = identity_map()
        cx = PairComplex(g, range(g.box_count), set())
        cell = ((3,), 1)  # the box [3/8, 4/8]
        got = carrier(bm, cx, cell)
        assert got.tolist() == bm.targets(3).tolist()

    def test_vertex_carrier_unions_both_cofaces(self):
        bm, g = identity_map()
        cx = PairComplex(g, range(g.box_count), set())
        cell = ((3,), 0)  # vertex shared by boxes 2 and 3
        want = sorted(set(bm.targets(2)) | set(bm.targets(3)))
        assert carrier(bm, cx, cell).tolist() == want

    def test_identity_carriers_contain_own_cell_boxes(self):
        bm, g = identity_map()
        cx = PairComplex(g, range(g.box_count), set())
        for cell in cells(cx):
            car = set(carrier(bm, cx, cell).tolist())
            for j in cell_coface_boxes(cell, g.shape):
                assert g.linearize(j) in car


class TestCarrierRectangle:
    def test_carriers_match_scalar_intersection(self):
        """The carrier rectangle of every closure cell is the
        intersection of the target rectangles of its P1 coface boxes,
        and an empty one, or one with an exterior P1 coface, is refused
        at the first such cell; random 2-D and 3-D pairs, cells at the
        grid's edge and outside P1 too."""
        rng = np.random.default_rng(15)
        outcomes = set()
        for depths in ([2, 3], [2, 2, 2]):
            d = len(depths)
            g = CubicalGrid(PhaseSpace([0.0] * d, [1.0] * d), depths)
            shape = np.array(g.shape)
            for trial in range(16):
                if trial % 2:  # every intersection meets the middle
                    jmin = rng.integers(0, shape // 2, size=(g.box_count, d))
                    jmax = rng.integers(shape // 2, shape, size=(g.box_count, d))
                else:
                    jmin = rng.integers(0, shape, size=(g.box_count, d))
                    jmax = np.minimum(jmin + rng.integers(0, 3, size=(g.box_count, d)),
                                      shape - 1)
                p1 = rng.choice(g.box_count, size=rng.integers(1, g.box_count),
                                replace=False)
                exterior = np.zeros(g.box_count, dtype=bool)
                if trial % 4 == 3:  # inside P1, so the exterior guard passes
                    exterior[rng.choice(p1)] = True
                bm = BoxMap(g, jmin=jmin, jmax=jmax, exterior=exterior)
                p0 = [int(b) for b in p1 if rng.random() < 0.3]
                cx = PairComplex(g, p1, p0)
                in_p1 = set(p1.tolist())
                rects, first_empty = [], None
                for code in cx.closure:
                    cell = decode(cx, code)
                    boxes = [g.linearize(j) for j in cell_coface_boxes(cell, g.shape)]
                    boxes = [b for b in boxes if b in in_p1]
                    lo = np.max(jmin[boxes], axis=0)
                    hi = np.min(jmax[boxes], axis=0)
                    rects.append((lo, hi))
                    if first_empty is None and ((lo > hi).any()
                                                or exterior[boxes].any()):
                        first_empty = cell
                if first_empty is not None:
                    with pytest.raises(CarrierNotAcyclic) as exc:
                        chain_map(bm, cx)
                    assert exc.value.cell == first_empty
                    outcomes.add("empty")
                    continue
                small = chain_map(bm, cx)
                large = chain_map(bm, cx, vertex_rule="largest")
                for row, (lo, hi) in enumerate(rects):
                    assert np.array_equal(small._lo[row], lo)
                    assert decode(cx, large._vertex[row]) == (tuple(hi + 1), 0)
                outcomes.add("nonempty")
        assert outcomes == {"empty", "nonempty"}


class TestChainMap:
    def test_constant_oracle_h0_identity(self):
        g = grid1d(3)
        bm = build_boxmap(g, CallableOracle(lambda x: np.array([0.4]), 0.0, 1), 0.0)
        cx = PairComplex(g, range(g.box_count), set())
        basis = HomologyBasis(cx)
        cm = chain_map(bm, cx)
        mats = induced_homology_map(cm, basis)
        assert mats[0].shape == (1, 1) and mats[0][0, 0] == 1
        assert mats[1].shape == (0, 0)

    def test_identity_oracle_h0_identity(self):
        bm, g = identity_map()
        cx = PairComplex(g, range(g.box_count), set())
        basis = HomologyBasis(cx)
        mats = induced_homology_map(chain_map(bm, cx), basis)
        assert mats[0].shape == (1, 1) and mats[0][0, 0] == 1

    def test_identity_oracle_2d_h0_identity(self):
        g = grid2d(2, 2)
        bm = build_boxmap(g, CallableOracle(lambda x: x, 1.0, 2), 0.0)
        cx = PairComplex(g, range(g.box_count), set())
        basis = HomologyBasis(cx)
        mats = induced_homology_map(chain_map(bm, cx), basis)
        assert mats[0].shape == (1, 1) and mats[0][0, 0] == 1

    def test_piecewise_top_node_h1_is_one(self):
        g = CubicalGrid(PhaseSpace([-2.0], [2.0]), [10])
        bm = build_boxmap(g, PiecewiseExample1D(1.5), 1e-3)
        cond = condensation(bm)
        # top node: the one reached by no other, containing x = 1
        top_box = g.linearize(g.box_containing([1.0]))
        cid = cond.component_of(top_box)
        assert cond.is_recurrent(cid)
        pair = index_pair(cond, cid)
        cx = PairComplex(g, pair.p1, pair.p0)
        basis = HomologyBasis(cx)
        assert basis.betti_numbers(1) == [0, 1]
        mats = induced_homology_map(chain_map(bm, cx), basis)
        assert mats[1].shape == (1, 1) and mats[1][0, 0] == 1

    def test_commutes_with_boundary(self, rng):
        """del(phi(c)) == phi(del(c)) cell by cell on random pairs."""
        for _ in range(20):
            g = grid2d(2, 2)
            f = CallableOracle(lambda x: 1.0 - x, 1.0, 2)
            bm = build_boxmap(g, f, 0.0)
            boxes = set(int(b) for b in rng.choice(16, size=10, replace=False))
            cond = condensation(bm)
            # use the full complex: P1 = all boxes (forward invariant)
            cx = PairComplex(g, range(16), set())
            cm = chain_map(bm, cx)
            bd = boundary_chains(cx)
            for cell in range(len(cx)):
                lhs = {}
                for c2, v in cm[cell].items():
                    for face, bv in bd[c2].items():
                        nv = (lhs.get(face, 0) + v * bv) % cx.prime
                        lhs[face] = nv
                lhs = {c: v for c, v in lhs.items() if v}
                rhs = apply_chain_map(cm, bd[cell])
                assert lhs == rhs

    def test_phi_supported_in_declared_carrier(self):
        bm, g = identity_map()
        cx = PairComplex(g, range(g.box_count), set())
        cm = chain_map(bm, cx)
        named = cells(cx)
        for pos, cell in enumerate(named):
            allowed = set(carrier(bm, cx, cell).tolist())
            # support boxes of the image cells must be carried boxes
            for c2 in cm[pos]:
                covers = [g.linearize(j)
                          for j in cell_coface_boxes(named[c2], g.shape)]
                assert any(c in allowed for c in covers)

    @pytest.mark.parametrize("last_target, last_exterior", [(3, False),
                                                            (0, True)])
    def test_carrier_checked_outside_the_representatives(
            self, last_target, last_exterior):
        """An empty carrier raises even where the index never reads phi.

        Boxes 0-2 map to box 0, and box 3 maps to box 3 or is exterior
        (no targets): the vertex shared by boxes 2 and 3 has an empty
        carrier, while the only H_0 representative is the vertex at 0."""
        g = grid1d(2)
        ranges = np.array([[0], [0], [0], [last_target]])
        bm = BoxMap(g, jmin=ranges, jmax=ranges,
                    exterior=np.array([False] * 3 + [last_exterior]))
        cx = PairComplex(g, range(4), set())
        named = cells(cx)
        assert [{named[j]: v for j, v in rep.items()}
                for rep in HomologyBasis(cx).representatives(0)] == [{((0,), 0): 1}]
        with pytest.raises(CarrierNotAcyclic) as exc:
            chain_map(bm, cx)
        assert exc.value.cell == ((3,), 0)

    def test_index_pair_touching_exterior_is_refused(self):
        """Box 3 is exterior and outside P1 = {0, 1, 2}; the vertex it
        shares with box 2 is a cell of the quotient."""
        g = grid1d(2)
        bm = BoxMap(g, jmin=np.array([[0], [0], [1], [0]]),
                    jmax=np.array([[1], [1], [2], [0]]),
                    exterior=np.array([False, False, False, True]))
        cx = PairComplex(g, [0, 1, 2], set())
        assert ((3,), 0) in cells(cx)
        with pytest.raises(BoxdynError, match="index pair touches exterior"):
            chain_map(bm, cx)

    def test_commute_check_fires(self, monkeypatch):
        """A contraction that is off by one coefficient breaks
        del(phi) = phi(del) on the H_2 representative of a 2-D repeller,
        and the chain map refuses it."""
        g = grid2d(3, 3)
        bm = build_boxmap(g, CallableOracle(lambda x: 2.0 * x - 0.5, 2.0, 2), 0.0)
        cond = condensation(bm)
        pair = index_pair(cond, cond.component_of(
            g.linearize(g.box_containing([0.4, 0.4]))))
        cx = PairComplex(g, pair.p1, pair.p0)
        basis = HomologyBasis(cx)
        assert induced_homology_map(chain_map(bm, cx), basis)[2].tolist() == [[1]]
        contract = homology._contract

        def corrupt(*args):
            out = contract(*args)
            if out:
                key = next(iter(out))
                out[key] = (out[key] + 1) % cx.prime
            return out

        monkeypatch.setattr(homology, "_contract", corrupt)
        with pytest.raises(BoxdynError, match="does not commute"):
            induced_homology_map(chain_map(bm, cx), basis)

    def test_vertex_rule_invariance_on_homology(self):
        g = CubicalGrid(PhaseSpace([-2.0], [2.0]), [8])
        bm = build_boxmap(g, PiecewiseExample1D(1.5), 1e-3)
        cond = condensation(bm)
        top_box = g.linearize(g.box_containing([1.0]))
        cid = cond.component_of(top_box)
        pair = index_pair(cond, cid)
        cx = PairComplex(g, pair.p1, pair.p0)
        basis = HomologyBasis(cx)
        m1 = induced_homology_map(chain_map(bm, cx, vertex_rule="smallest"), basis)
        m2 = induced_homology_map(chain_map(bm, cx, vertex_rule="largest"), basis)
        for dim in (0, 1):
            assert charpoly_mod_p(m1[dim], 5) == charpoly_mod_p(m2[dim], 5)


class ProductOracle(MapOracle):
    """x -> (f_i(x_i)), f_i two steps of y -> y + eps_i sin(2 pi k_i y),
    reversed (y -> 1 - y) where flip_i.  |2 pi k_i eps_i| < 1, so each
    f_i is monotone and a box's image is the product of the images of
    its edges, exactly."""

    def __init__(self, eps, k, flip):
        self.eps, self.k, self.flip = eps, k, flip

    @property
    def dimension(self):
        return len(self.eps)

    def lipschitz_upper_bound(self):
        return float(1 + 2 * np.pi * np.abs(self.k * self.eps).max()) ** 2

    def _axis(self, i, x):
        for _ in range(2):
            x = x + self.eps[i] * np.sin(2 * np.pi * self.k[i] * x)
        return 1.0 - x if self.flip[i] else x

    def eval_batch(self, points):
        return np.column_stack([self._axis(i, points[:, i])
                                for i in range(self.dimension)])

    def enclosures(self, faces):
        # coordinate i depends on axis i only: length 1 on every other axis
        ends = [self._axis(i, f) for i, f in enumerate(faces)]
        d = self.dimension
        return tuple(
            [pick(v[:-1], v[1:]).reshape([-1 if j == i else 1
                                          for j in range(d)])
             for i, v in enumerate(ends)]
            for pick in (np.minimum, np.maximum))


def node_complexes(bm):
    """The pair complex of every Morse node of a box map."""
    cond = condensation(bm)
    return [PairComplex(bm.grid, pair.p1, pair.p0)
            for pair in (index_pair(cond, cid)
                         for cid in morse_graph(cond).component_ids)]


@pytest.fixture(scope="module")
def leslie77():
    """Leslie at depths (7, 7), rho = 0.03: its box map and the pair
    complex of every node.  The attractor has H_0 of rank 3 and the
    saddle H_1 of rank 3."""
    grid = CubicalGrid(PhaseSpace((0.0, 0.0), (90.0, 70.0)), (7, 7))
    bm = build_boxmap(grid, LeslieOracle((23.5, 23.5)), 0.03)
    return bm, node_complexes(bm)


class TestCocycles:
    def test_induced_map_matches_elimination_reference(self):
        """Index matrices from cocycles, with phi only where a cocycle
        reads it, equal phi of whole representatives projected by
        elimination; every node of random product maps in dimensions
        1-3, with expanding, contracting and reversed axes, and both
        vertex rules."""
        rng = np.random.default_rng(16)
        seen = set()
        for case, depths in enumerate(([6], [5, 5], [4, 4, 4], [5], [4, 5],
                                       [3, 4, 4], [6], [5, 4], [4, 4, 3])):
            rule = ("smallest", "largest")[case % 2]
            d = len(depths)
            k = rng.integers(1, 3 if d == 1 else 2, size=d)
            eps = (rng.choice([-1, 1], size=d) * rng.uniform(0.6, 0.95, size=d)
                   / (2 * np.pi * k))
            g = CubicalGrid(PhaseSpace([0.0] * d, [1.0] * d), depths)
            bm = build_boxmap(g, ProductOracle(eps, k, rng.random(d) < 0.3),
                              float(rng.uniform(0.02, 0.05)))
            for cx in node_complexes(bm):
                basis = HomologyBasis(cx)
                got = induced_homology_map(chain_map(bm, cx, rule), basis)
                want = reference_induced_map(chain_map(bm, cx, rule), basis)
                for dim in range(d + 1):
                    assert np.array_equal(got[dim], want[dim])
                    if got[dim].size:
                        seen.add((dim, got[dim].tolist() == [[1]]))
        assert {(1, True), (1, False), (2, True), (2, False)} <= seen

    def test_induced_map_matches_reference_on_pinned_nodes(self, leslie77):
        """The same on every node of Leslie (7, 7) and of the piecewise
        map at depth 10, the attractor through the dimension-0 path and
        the saddle through the push-up."""
        g = CubicalGrid(PhaseSpace([-2.0], [2.0]), [10])
        piecewise = build_boxmap(g, PiecewiseExample1D(1.5), 1e-3)
        ranks = []
        for bm, complexes in (leslie77, (piecewise, node_complexes(piecewise))):
            for cx in complexes:
                basis = HomologyBasis(cx)
                got = induced_homology_map(chain_map(bm, cx), basis)
                want = reference_induced_map(chain_map(bm, cx), basis)
                for dim in got:
                    assert np.array_equal(got[dim], want[dim])
                ranks.append(basis.betti_numbers(cx.grid.dimension))
        assert [3, 0, 0] in ranks and [0, 3, 0] in ranks

    @pytest.mark.parametrize("dim", [0, 1])
    @pytest.mark.parametrize("corrupt, match", [("coefficient", "not a cocycle"),
                                                ("drop", "not a cocycle"),
                                                ("sum", "delta_ij")])
    def test_cocycle_checks_fire(self, leslie77, monkeypatch, dim, corrupt, match):
        """A cocycle with one coefficient changed or one support cell
        dropped (not its essential cell) is not a cocycle; zeta_0 +
        zeta_1 is one, but pairs to 1 with z_1.  Each is refused, on the
        attractor's dimension-0 path and the saddle's push-up."""
        _, complexes = leslie77
        cx = next(cx for cx in complexes if HomologyBasis(cx).rank(dim) >= 2)
        basis = HomologyBasis(cx)
        name = "_components" if dim == 0 else "_push_up"
        compute = getattr(HomologyBasis, name)

        def corrupted(self, *args):
            out = compute(self, *args)
            zeta = out[0]
            essential = next(iter(self._V[dim]))
            r = next(r for r in zeta if r != essential and (cx.qcof[r] >= 0).any())
            if corrupt == "coefficient":
                zeta[r] = (zeta[r] + 1) % cx.prime
            elif corrupt == "drop":
                del zeta[r]
            else:
                for j, v in out[1].items():
                    zeta[j] = (zeta.get(j, 0) + v) % cx.prime
            return out

        monkeypatch.setattr(HomologyBasis, name, corrupted)
        with pytest.raises(BoxdynError, match=match):
            basis.cocycles(dim)

import json

import numpy as np
import pytest

from boxdyn import (
    BoxdynError,
    ConleyIndex,
    CubicalGrid,
    PhaseSpace,
    PiecewiseExample1D,
    build_boxmap,
    condensation,
    conley_index,
    morse_graph,
    morse_graph_from_jsonable,
    nontriviality,
)
from boxdyn.conley import (
    _poly_divmod,
    _poly_mul,
    format_poly,
    invariant_factors_mod_p,
    shift_class,
    shift_invariant_factors,
)

from conftest import (charpoly_mod_p, eventual_restriction, rank_mod_p,
                      solve_mod_p)

P = 5


def random_invertible(rng, n, p=P):
    while True:
        m = rng.integers(0, p, size=(n, n))
        if rank_mod_p(m, p) == n:
            return m.astype(np.int64)


class TestCharpoly:
    def test_examples(self):
        # charpoly of [[1]] is x - 1 -> ascending (-1, 1) mod 5 = (4, 1)
        assert charpoly_mod_p(np.array([[1]]), P) == (4, 1)
        # 3-cycle permutation: x^3 - 1
        cyc = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
        assert charpoly_mod_p(cyc, P) == (4, 0, 0, 1)
        # 2x2 zero matrix: x^2
        assert charpoly_mod_p(np.zeros((2, 2), dtype=int), P) == (0, 0, 1)

    def test_matches_integer_charpoly(self, rng):
        """charpoly mod p, the product of the invariant factors, agrees
        with the Leibniz expansion of det(xI - m) on small matrices."""
        import itertools
        for _ in range(200):
            n = int(rng.integers(1, 5))
            m = rng.integers(-3, 4, size=(n, n))
            # brute-force charpoly: det(xI - m) by Leibniz over Z
            coeffs = np.zeros(n + 1, dtype=object)
            for perm in itertools.permutations(range(n)):
                sign = 1
                seen = [False] * n
                for i in range(n):
                    if not seen[i]:
                        j, ln = i, 0
                        while not seen[j]:
                            seen[j] = True
                            j = perm[j]
                            ln += 1
                        sign *= (-1) ** (ln - 1)
                poly = np.array([1], dtype=object)
                for i in range(n):
                    if perm[i] == i:
                        term = np.array([-m[i, i], 1], dtype=object)
                    else:
                        term = np.array([-m[i, perm[i]]], dtype=object)
                    poly = np.convolve(poly, term)
                coeffs[:len(poly)] += sign * poly
            want = tuple(int(c) % P for c in coeffs)
            assert charpoly_mod_p(m, P) == want


class TestShiftClass:
    def test_nilpotent_is_none(self):
        assert shift_class(np.array([[0]]), P) is None
        assert shift_class(np.array([[0, 1], [0, 0]]), P) is None
        assert shift_class(np.zeros((0, 0), dtype=int), P) is None

    def test_identity_and_cycle(self):
        assert shift_class(np.array([[1]]), P) == (4, 1)
        cyc = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
        assert shift_class(cyc, P) == (4, 0, 0, 1)
        assert shift_class(np.eye(3, dtype=int), P) == \
            charpoly_mod_p(np.eye(3, dtype=int), P)

    def test_nilpotent_part_discarded(self):
        # block diag(1, nilpotent): eventual image is 1-dimensional
        m = np.array([[1, 0, 0], [0, 0, 1], [0, 0, 0]])
        assert shift_class(m, P) == (4, 1)

    def test_similarity_invariance(self, rng):
        """shift_class(m) == shift_class(s m s^-1) — at least 200 cases."""
        count = 0
        while count < 200:
            n = int(rng.integers(1, 6))
            m = rng.integers(0, P, size=(n, n)).astype(np.int64)
            s = random_invertible(rng, n)
            # s_inv: solve s x = e_j per column
            s_inv = np.zeros((n, n), dtype=np.int64)
            for j in range(n):
                e = np.zeros(n, dtype=np.int64)
                e[j] = 1
                s_inv[:, j] = solve_mod_p(s, e, P)
            conj = (s @ m % P @ s_inv) % P
            assert shift_class(conj, P) == shift_class(m, P)
            assert shift_invariant_factors(conj, P) == \
                shift_invariant_factors(m, P)
            count += 1

    def test_degree_equals_eventual_rank(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 6))
            m = rng.integers(0, P, size=(n, n)).astype(np.int64)
            power = np.linalg.matrix_power(m, n) % P
            rk = rank_mod_p(power, P)
            sc = shift_class(m, P)
            deg = 0 if sc is None else len(sc) - 1
            assert deg == rk

    def test_restriction_has_invertible_class(self, rng):
        # the shift class never has zero constant term (map invertible
        # on its eventual image)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            m = rng.integers(0, P, size=(n, n)).astype(np.int64)
            sc = shift_class(m, P)
            if sc is not None:
                assert sc[0] != 0

    def test_stripping_matches_eventual_restriction(self):
        """The Smith form's factors with their powers of x removed are the
        invariant factors of the restriction to the eventual image, found
        by the dense reference: block upper-triangular matrices with a
        nilpotent block, a coupling block and a random relabelling."""
        rng = np.random.default_rng(20261018)
        for trial in range(200):
            p = (2, 3, 5, 7)[trial % 4]
            n = int(rng.integers(1, 8))
            k = int(rng.integers(0, n + 1))
            m = rng.integers(0, p, size=(n, n))
            m[k:, :k] = 0
            m[k:, k:] = np.triu(m[k:, k:], 1)  # nilpotent block
            perm = rng.permutation(n)
            m = m[np.ix_(perm, perm)]
            assert shift_invariant_factors(m, p) == \
                invariant_factors_mod_p(eventual_restriction(m, p), p)


class TestInvariantFactors:
    def test_cyclic_vs_diagonal(self):
        # identity 2x2: factors (x-1, x-1); 2-cycle: single factor x^2-1
        eye = np.eye(2, dtype=int)
        assert list(invariant_factors_mod_p(eye, P)) == [(4, 1), (4, 1)]
        swap = np.array([[0, 1], [1, 0]])
        assert list(invariant_factors_mod_p(swap, P)) == [(4, 0, 1)]

    def test_divisibility_chain(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 5))
            m = rng.integers(0, P, size=(n, n)).astype(np.int64)
            fs = invariant_factors_mod_p(m, P)
            for a, b in zip(fs, fs[1:]):
                _, rem = _poly_divmod(list(b), list(a), P)
                assert not rem

    def test_factor_counts_match_jordan_nullities(self):
        """For each eigenvalue lam in F_p, as many factors are divisible
        by (x - lam)^k as there are Jordan blocks of size >= k, which is
        nullity((m - lam)^k) - nullity((m - lam)^(k-1)).  This separates
        (x - 1), (x - 1) from (x - 1)^2, which the product cannot."""
        rng = np.random.default_rng(20261019)
        for trial in range(90):
            p = (2, 3, 5)[trial % 3]
            n = int(rng.integers(1, 7))
            # a small spectrum gives repeated eigenvalues and long blocks
            m = np.triu(rng.integers(0, p, size=(n, n)))
            m[np.diag_indices(n)] = rng.integers(0, 2, size=n)
            s = random_invertible(rng, n, p)
            s_inv = np.column_stack([solve_mod_p(s, e, p)
                                     for e in np.eye(n, dtype=np.int64)])
            m = s @ m @ s_inv % p
            fs = invariant_factors_mod_p(m, p)
            for lam in range(p):
                shifted = (m - lam * np.eye(n, dtype=np.int64)) % p
                power = np.eye(n, dtype=np.int64)
                nullity = [0]
                root = (1,)
                for k in range(1, n + 1):
                    power = power @ shifted % p
                    nullity.append(n - rank_mod_p(power, p))
                    root = _poly_mul(root, ((-lam) % p, 1), p)
                    divisible = sum(not _poly_divmod(f, root, p)[1]
                                    for f in fs)
                    assert divisible == nullity[k] - nullity[k - 1]


class TestFormatPoly:
    def test_examples(self):
        assert format_poly((4, 1), P) == "x - 1"
        assert format_poly((4, 0, 0, 1), P) == "x^3 - 1"
        assert format_poly((0, 0, 1), P) == "x^2"
        assert format_poly(None, P) == "0"
        assert format_poly((1,), P) == "1"
        assert format_poly((2, 3, 1), P) == "x^2 + 3x + 2"
        # only p-1 prints as a negative; other residues stay as-is
        assert format_poly((3, 1), P) == "x + 3"


class TestConleyIndexObject:
    def _sample(self):
        g = CubicalGrid(PhaseSpace([-2.0], [2.0]), [10])
        bm = build_boxmap(g, PiecewiseExample1D(1.5), 1e-3)
        cond = condensation(bm)
        cid = cond.component_of(g.linearize(g.box_containing([0.0])))
        return conley_index(bm, cond, cid, prime=5)

    def test_fixed_point_index(self):
        ci = self._sample()
        assert ci.labels() == ("x - 1", "0")
        assert not ci.is_trivial()

    def test_shift_class_computed_once_per_dimension(self, monkeypatch):
        """One Smith form per homology dimension: the label is the
        product of the invariant factors already found."""
        import boxdyn.conley as conley
        calls = []
        smith = conley.invariant_factors_mod_p

        def counted(m, p):
            calls.append(m.shape)
            return smith(m, p)

        monkeypatch.setattr(conley, "invariant_factors_mod_p", counted)
        ci = self._sample()
        assert ci.labels() == ("x - 1", "0")
        assert len(calls) == 2  # dimensions 0 and 1 of a 1-D grid

    def test_refuses_a_box_map_other_than_the_condensations(self):
        """The index pair is searched on cond.boxmap; another map, even on
        the same grid, cannot be paired with it."""
        g = CubicalGrid(PhaseSpace([-2.0], [2.0]), [6])
        bm = build_boxmap(g, PiecewiseExample1D(1.5), 1e-3)
        other = build_boxmap(g, PiecewiseExample1D(1.5), 0.5)
        cond = condensation(bm)
        with pytest.raises(BoxdynError, match="condensation"):
            conley_index(other, cond, int(cond.recurrent[0]), prime=5)

    def test_json_round_trip(self):
        ci = self._sample()
        back = ConleyIndex.from_jsonable(ci.to_jsonable())
        assert back == ci
        assert back.labels() == ci.labels()

    @pytest.mark.parametrize("key, value", [("labels", ["x + 1", "0"]),
                                            ("polys", [[1, 1], None]),
                                            ("prime", 7.9), ("prime", 6)])
    def test_record_contradicting_its_factors_refused(self, key, value):
        """The stored factor is x - 1 at p = 5; a label or polynomial
        edited to x + 1 contradicts it, and a prime edited to a fraction
        or a composite is not a field order."""
        doc = self._sample().to_jsonable()
        assert doc["invariant_factors"] == [[[4, 1]], []]
        doc[key] = value
        with pytest.raises(BoxdynError, match=key):
            ConleyIndex.from_jsonable(doc)

    def test_morse_graph_json_restores_every_index(self):
        g = CubicalGrid(PhaseSpace([-2.0], [2.0]), [8])
        bm = build_boxmap(g, PiecewiseExample1D(1.5), 1e-3)
        cond = condensation(bm)
        mg = morse_graph(cond)
        for q, cid in enumerate(mg.component_ids):
            mg.index_of[q] = conley_index(bm, cond, cid, prime=5)
        back = morse_graph_from_jsonable(json.loads(mg.to_json()))
        assert back.index_of == mg.index_of
        assert back.to_dot() == mg.to_dot()

    def test_nontriviality_report(self):
        ci = self._sample()
        flag, report = nontriviality(ci)
        assert flag and "nonzero" in report
        trivial = ConleyIndex(prime=5, invariant_factors=((), ()))
        flag, report = nontriviality(trivial)
        assert not flag

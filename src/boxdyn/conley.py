"""Shift-equivalence invariant of the induced homology map.

Over a field the shift class of a square matrix is the similarity class
of its restriction to the eventual image (the nilpotent part discarded;
Franks and Richeson, Shift equivalence and the Conley index, 2000).
That class is fixed by the restriction's invariant factors.  They come
from one Smith normal form of xI - A over F_p[x]: by the Fitting
decomposition the nilpotent part is the x-primary part of that form, so
the restriction's factors are A's own with their powers of x removed.
The label per dimension is their product, the restriction's
characteristic polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from .errors import BoxdynError
from .graph_dynamics import Condensation, index_pair
from .homology import (HomologyBasis, PairComplex, _inv_mod, chain_map,
                       check_prime, induced_homology_map)
from .outer_approx import BoxMap

# polynomials over F_p are tuples of coefficients, ascending powers,
# no trailing zeros; the zero shift class is represented by None.


def _poly_trim(c):
    c = [int(v) for v in c]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return _poly_trim(out)


def _poly_divmod(a, b, p):
    a = list(a)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv = _inv_mod(b[-1], p)
    q = [0] * max(len(a) - len(b) + 1, 0)
    for k in range(len(a) - len(b), -1, -1):
        coef = (a[k + len(b) - 1] * inv) % p
        q[k] = coef
        if coef:
            for i, bv in enumerate(b):
                a[k + i] = (a[k + i] - coef * bv) % p
    return _poly_trim(q), _poly_trim(a)


def _poly_sub(a, b, p):
    return _poly_trim([(x - y) % p for x, y in zip_longest(a, b, fillvalue=0)])


def _poly_monic(a, p):
    if not a:
        return ()
    inv = _inv_mod(a[-1], p)
    return _poly_trim([(v * inv) % p for v in a])


def format_poly(coeffs, p) -> str:
    """Monic, descending powers; coefficient p-1 printed as -1."""
    if coeffs is None:
        return "0"
    coeffs = _poly_trim(coeffs)
    if not coeffs:
        return "0"
    deg = len(coeffs) - 1
    parts = []
    for k in range(deg, -1, -1):
        c = coeffs[k] % p
        if c == 0:
            continue
        if k == deg:
            sign, mag = "", 1  # monic by construction
        elif c == p - 1:
            sign, mag = " - ", 1
        else:
            sign, mag = " + ", c
        if k == 0:
            term = str(mag)
        elif k == 1:
            term = "x" if mag == 1 else f"{mag}x"
        else:
            term = f"x^{k}" if mag == 1 else f"{mag}x^{k}"
        parts.append(sign + term)
    return "".join(parts) if parts else "0"


def _poly_product(polys, p):
    out = (1,)
    for f in polys:
        out = _poly_mul(out, f, p)
    return out


def invariant_factors_mod_p(m: np.ndarray, p: int):
    """Nonconstant invariant factors of m: Smith normal form of xI - m
    over F_p[x].  Returned monic, each dividing the next."""
    a = np.array(m, dtype=np.int64) % p
    n = a.shape[0]
    mat = [[_poly_trim([-a[i, j] % p] + [1] * (i == j)) for j in range(n)]
           for i in range(n)]
    factors = []
    for t in range(n):
        while True:
            nonzero = [(i, j) for i in range(t, n) for j in range(t, n)
                       if mat[i][j]]
            if not nonzero:
                break
            bi, bj = min(nonzero, key=lambda ij: len(mat[ij[0]][ij[1]]))
            mat[t], mat[bi] = mat[bi], mat[t]
            for row in mat:
                row[t], row[bj] = row[bj], row[t]
            # clear column t below the pivot, then row t by the same
            # pass on the transpose; a remainder left behind is of
            # lower degree than the pivot and becomes the next pivot
            dirty = False
            for _ in range(2):
                for i in range(t + 1, n):
                    if mat[i][t]:
                        q, r = _poly_divmod(mat[i][t], mat[t][t], p)
                        mat[i][t:] = [_poly_sub(x, _poly_mul(q, y, p), p)
                                      for x, y in zip(mat[i][t:], mat[t][t:])]
                        dirty |= bool(r)
                mat = [list(col) for col in zip(*mat)]
            if dirty:
                continue
            # the pivot must divide every remaining entry; a row holding
            # one it does not divide is folded into row t
            bad = next((i for i in range(t + 1, n) for j in range(t + 1, n)
                        if _poly_divmod(mat[i][j], mat[t][t], p)[1]), None)
            if bad is None:
                break
            mat[t][t:] = [_poly_sub(x, y, p)
                          for x, y in zip(mat[t][t:], mat[bad][t:])]
        if mat[t][t]:
            piv = _poly_monic(mat[t][t], p)
            if len(piv) > 1:
                factors.append(piv)
    return factors


def shift_invariant_factors(m: np.ndarray, p: int):
    """Invariant factors of m on its eventual image: the exact
    representative of the shift class.  The discarded nilpotent part is
    the x-primary part of the Smith form, so each factor of xI - m loses
    its power of x, and factors that become 1 are dropped."""
    out = []
    for f in invariant_factors_mod_p(m, p):
        k = next(i for i, c in enumerate(f) if c)
        if len(f) - k > 1:
            out.append(f[k:])
    return out


def _label(factors, p):
    """Product of one dimension's factors; None (zero class) for none."""
    return _poly_product(factors, p) if factors else None


def shift_class(m: np.ndarray, p: int):
    """Characteristic polynomial of m restricted to its eventual image,
    the product of its invariant factors.  Returns ascending
    coefficients, or None when the eventual image is trivial (nilpotent m).
    """
    return _label(shift_invariant_factors(m, p), p)


@dataclass(frozen=True)
class ConleyIndex:
    """Per-dimension shift classes of an isolated invariant set."""

    prime: int
    invariant_factors: tuple  # per dim: tuple of ascending coeff tuples

    @property
    def polys(self):  # per dim: ascending coeff tuple, or None for zero
        return tuple(_label(fs, self.prime) for fs in self.invariant_factors)

    def __str__(self):
        return f"({', '.join(self.labels())})"

    def labels(self):
        return tuple(format_poly(q, self.prime) for q in self.polys)

    def is_trivial(self) -> bool:
        return not any(self.invariant_factors)

    def to_jsonable(self) -> dict:
        return {
            "prime": self.prime,
            "polys": [None if q is None else list(q) for q in self.polys],
            "invariant_factors": [
                [list(f) for f in fs] for fs in self.invariant_factors
            ],
            "labels": list(self.labels()),
        }

    @classmethod
    def from_jsonable(cls, doc: dict) -> "ConleyIndex":
        ci = cls(  # stored polys and labels must agree with the factors
            prime=check_prime(doc["prime"]),
            invariant_factors=tuple(
                tuple(tuple(f) for f in fs) for fs in doc["invariant_factors"]
            ),
        )
        for key in ("polys", "labels"):
            if key in doc and doc[key] != ci.to_jsonable()[key]:
                raise BoxdynError(f"Conley index record: {key} {doc[key]} "
                                  "disagree with its invariant factors")
        return ci


def conley_index(boxmap: BoxMap, cond: Condensation, cid: int,
                 prime: int = 5) -> ConleyIndex:
    """Index pair -> relative complex -> chain map -> homology matrix ->
    shift class, per dimension.  boxmap must be cond.boxmap, the map the
    condensation was computed from."""
    if boxmap is not cond.boxmap:
        raise BoxdynError("conley_index needs the box map its condensation "
                          "was computed from")
    pair = index_pair(cond, cid)
    complex = PairComplex(boxmap.grid, pair.p1, pair.p0, prime)
    basis = HomologyBasis(complex)
    cm = chain_map(boxmap, complex)
    mats = induced_homology_map(cm, basis)
    return ConleyIndex(prime=prime, invariant_factors=tuple(
        tuple(shift_invariant_factors(mats[dim], prime))
        for dim in range(boxmap.grid.dimension + 1)))


def nontriviality(ci: ConleyIndex):
    """(flag, report).  A nonzero index certifies a nonempty isolated
    invariant set in the enclosed region; a zero index proves nothing."""
    flag = not ci.is_trivial()
    if flag:
        report = (
            f"Conley index {ci} is nonzero: the enclosing region contains a "
            "nonempty isolated invariant set of every map compatible with "
            "the outer approximation."
        )
    else:
        report = (
            "Conley index is zero in every dimension: no conclusion. A zero "
            "index does not imply the invariant set is empty."
        )
    return flag, report

"""Cubical relative homology over a prime field and induced maps.

A cell of the grid's cubical complex is an integer code
(dim * n_vertices + anchor) * 2^d + mask, with the linear index of its
lowest vertex on the vertex lattice as anchor and a bitset of the axes
along which it extends as mask; sorted codes run by dimension, then
anchor, then mask.  The relative complex of a pair of box sets (P1, P0)
is realized as the quotient: a cell survives iff it has at least one
coface box in P1 \\ P0 and none in P0.  PairComplex builds the closure
(every face of a box of P1 \\ P0), its coface boxes, the boundary of
every closure cell and the quotient faces and cofaces in a few numpy
passes over codes (cubical cells as in Kaczynski, Mischaikow and Mrozek,
Computational Homology, 2004).  A face of box j at offset bits(o) with
mask m, o & m = 0, has the code of j's lowest vertex shifted left by d
plus a constant per (o, m), so the closure is one broadcast add, one
sort and one dedupe.  Coface slot k of a cell is the box at its anchor,
found from the per-axis anchors, less bits(k) times the box strides;
the cell stays in the quotient by an OR of one gather per slot.  The
quotient faces and their signs are built once as arrays, and a cell's
boundary is read from its row when it is needed.  A quotient cell is
its position 0..n-1 in closure order, which is the reduction order:
chains and cochains over the quotient are dicts position ->
coefficient, and chains in the full complex, where the chain map is
built, dicts code -> coefficient.

Homology comes from a column reduction R = D V that runs from the top
dimension down with clearing (Chen and Kerber, Persistent homology
computation with a twist, 2011): a column whose index is the pivot row
of a column one dimension up is a cycle, so it is set to zero without
being reduced.  Columns reduce only against columns of their own
dimension, so every other column, the essential cells and the
representatives are those of a plain left-to-right reduction.  Each
dimension starts with one numpy claim pass, as in the chunks of Bauer,
Kerber and Reininghaus (Clear and compress: computing persistent
homology in chunks, 2014): the lows (highest quotient faces) of the
columns not cleared come from one max over the quotient faces, the
first column with each low takes it as it stands, and a column with no
low is essential.  Only the columns that collide run in Python.  They
are eliminated in increasing order from a min-heap, each against the
pivots of columns left of it, and, as in PHAT (Bauer, Kerber,
Reininghaus and Wagner, 2014), a column becomes a dict only when an
elimination reads or changes it.  A column whose reduction ends on a
row that a later column took as it stood takes that row, and the later
column is eliminated in its turn, as the left-to-right loop would do.
Each elimination takes the next highest key of its chain from a
max-heap.

The same reduction gives, for each essential cell i of dimension k, a
cocycle zeta_i dual to the representatives, <zeta_i, z_j> = delta_ij (de
Silva, Morozov and Vejdemo-Johansson, Dualities in persistent
(co)homology, 2011).  For k >= 1, zeta_i is e_i plus multiples of the
pivot rows of dimension k, found by increasing pivot row so that zeta_i
vanishes on every reduced column one dimension up, hence on every
boundary.  For k = 0 it is the indicator of i's component in the
quotient's 1-skeleton.  Both checks, delta(zeta_i) = 0 and the pairing,
run on every cocycle.  A relative cycle's coordinates in the homology
basis are its pairings with the cocycles.

The index map on homology is built as an acyclic-carrier chain map.
The carrier used for construction assigns to each cell the intersection
of the target ranges of its cofaces in P1.  A box map stores rectangle
target ranges, so this carrier is itself a box rectangle, contained in
the union carrier.  A face has every coface box of its cell and more,
so faces have smaller carriers: phi(del(sigma)) lies in sigma's
rectangle, where del(c) = phi(del(sigma)) is solved in closed form by a
chain contraction instead of linear algebra.  Entry (i, j) of the index
matrix is the sum over sigma of z_j(sigma) <zeta_i, phi(sigma)>, so phi
is evaluated, from the faces up, only on the representative cells whose
rectangle contains a cell of some cocycle's support, and del(phi) =
phi(del) is checked on every cell whose phi is computed.
"""

from __future__ import annotations

import heapq
import math
import numbers

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import BoxdynError, CarrierNotAcyclic
from .grid import CubicalGrid
from .outer_approx import BoxMap


def check_prime(p) -> int:
    """p as an int if it is an integer (not a bool) and a prime below
    2^16, else BoxdynError; a float is refused, not truncated.  Below
    2^16 a product of two residues is below 2^32, so the int64 sums of
    induced_homology_map cannot overflow."""
    if (isinstance(p, bool) or not isinstance(p, numbers.Integral)
            or not 2 <= p < 1 << 16
            or not all(p % k for k in range(2, math.isqrt(p) + 1))):
        raise BoxdynError(f"field order must be a prime below 2^16, got {p!r}")
    return int(p)


def _inv_mod(a: int, p: int) -> int:
    return pow(int(a) % p, p - 2, p)


def _axpy(dst: dict, src: dict, coef: int, p: int) -> None:
    """dst += coef * src over F_p for sparse chains, in place; entries
    that become zero are dropped."""
    for key, v in src.items():
        nv = (dst.get(key, 0) + coef * v) % p
        if nv:
            dst[key] = nv
        else:
            dst.pop(key, None)


def _dot(a: dict, b: dict) -> int:
    """sum of a[key] * b[key] over the shared keys, read off the smaller."""
    if len(b) < len(a):
        a, b = b, a
    return sum(v * b.get(key, 0) for key, v in a.items())


def _eliminate(vec: dict, track: dict, column, p: int) -> int:
    """Cancels the highest key of vec while column(key) gives chains
    (c, t), c with that key as its highest: vec -= coef * c and track -=
    coef * t.  Returns the highest key left, -1 once vec is zero.  Keys
    only fall, so a max-heap gives each next one; a key that cancelled
    after it was pushed is skipped."""
    heap = [-key for key in vec]
    heapq.heapify(heap)
    while heap:
        low = -heapq.heappop(heap)
        if low not in vec:
            continue
        pair = column(low)
        if pair is None:
            return low
        src, tsrc = pair
        coef = (vec[low] * _inv_mod(src[low], p)) % p
        for key in src:
            if key not in vec:  # it will not cancel
                heapq.heappush(heap, -key)
        _axpy(vec, src, -coef, p)
        _axpy(track, tsrc, -coef, p)
    return -1


class PairComplex:
    """Relative (quotient) cubical complex of a box-set pair on a grid.

    Only cells carrying relative chains are stored: those with a coface
    box in region = P1 \\ P0 and no coface box in P0.  Every coface in P1
    of such a cell is a region box, so the complex is small whenever the
    region is, regardless of how large P1 is.

    closure holds the sorted codes of every face of a region box.  By
    closure row: cofaces[r] lists the linear indices of the coface boxes,
    -1 where a box is absent (off the grid, or not a coface because the
    cell extends along that axis), column k being the box anchor -
    bits(k); it is the transpose of a (2^d, n) array, so cofaces.T has
    one contiguous row per slot.  faces[r, 2i] and faces[r, 2i + 1] are
    the rows of the upper and lower face along axis i, -1 where the cell
    does not extend along it, with signs in signs[r] (0 for no face);
    position[r] is the row's quotient position or -1, and its extra last
    slot answers for -1.  rows and dims give each quotient cell's closure
    row and dimension.  By quotient position: qfaces[j] holds the
    quotient positions of the faces, position[faces[rows[j]]], -1 for
    none or outside the quotient, and qcof[j, s] is the quotient coface
    whose face slot s holds the quotient cell j, -1 for none: the
    transpose of qfaces.  qsigns[j] = signs[rows[j]] are the faces'
    signs, and boundary(j) reads row j of qfaces and qsigns.
    """

    def __init__(self, grid: CubicalGrid, p1, p0, prime: int = 5):
        self.grid = grid
        self.prime = check_prime(prime)
        # state of each box: 0 outside P1, 1 in the region P1 \ P0, 2 in
        # P0; the extra last slot stays 0 and answers for the index -1
        state = np.zeros(grid.box_count + 1, dtype=np.int8)
        state[grid.box_indices(p1)] = 1
        p0 = grid.box_indices(p0)
        if (state[p0] == 0).any():
            raise BoxdynError("P0 must be a subset of P1")
        state[p0] = 2
        self._in_p1 = state > 0
        region = np.flatnonzero(state == 1)

        d = grid.dimension
        self._vshape = tuple(s + 1 for s in grid.shape)
        self._vstrides = [int(np.prod(self._vshape[i + 1:])) for i in range(d)]
        self._n_vertices = nv = int(np.prod(self._vshape))
        # bits[k, i] = bit i of k, for k < 2^d
        bits = (np.arange(1 << d)[:, None] >> np.arange(d)) & 1
        popcount = bits.sum(axis=1)

        # the 3^d faces of box j: anchor j + bits(o), mask m, o & m == 0,
        # so a face's code is j's vertex code << d plus a constant per
        # (o, m); sorted, a code equal to its predecessor is a repeat
        o, m = np.nonzero((np.arange(1 << d)[:, None] & np.arange(1 << d)) == 0)
        offset = ((popcount[m] * nv + bits[o] @ self._vstrides) << d) + m
        vertex = np.zeros(region.size, dtype=np.int64)
        for j, vstride in zip(grid.axis_indices(region), self._vstrides):
            vertex += j * vstride
        codes = np.sort(((vertex << d) + offset[:, None]).ravel())
        new = np.ones(codes.size, dtype=bool)
        np.not_equal(codes[1:], codes[:-1], out=new[1:])
        self.closure = codes[new]

        # coface k is the box at anchor - bits(k), present where the cell
        # does not extend along the bits of k and the box is on the grid.
        # Along axis i that box is the one below the anchor if bit i of k
        # is set, else the one above it; base is the box at the anchor.
        n = self.closure.size
        mask = self.closure & ((1 << d) - 1)
        lin = (self.closure >> d) % nv
        base = np.zeros(n, dtype=np.int64)
        below, above = [], []
        for i in range(d):
            a = lin // self._vstrides[i] % self._vshape[i]
            base += a * grid.strides[i]
            below.append((a > 0) & (((mask >> i) & 1) == 0))
            above.append(a < grid.shape[i])
        slots = np.empty((1 << d, n), dtype=np.int64)
        seen = np.zeros(n, dtype=np.int8)  # OR of the coface states
        for k in range(1 << d):
            present = below[0] if k & 1 else above[0]
            for i in range(1, d):
                present = present & (below[i] if (k >> i) & 1 else above[i])
            slots[k] = np.where(present, base - int(bits[k] @ grid.strides), -1)
            seen |= state[slots[k]]
        self.cofaces = slots.T

        # along an extended axis i the lower face keeps the anchor and the
        # upper one is a vertex stride further; the upper face's sign is
        # (-1)^(extended axes below i), the lower face's the opposite.  The
        # closure holds every face of its cells, so each search hits.
        self.faces = np.full((n, 2 * d), -1, dtype=np.int32)
        self.signs = np.zeros((n, 2 * d), dtype=np.int8)
        for i in range(d):
            j = np.flatnonzero((mask >> i) & 1)
            lower = self.closure[j] - (nv << d) - (1 << i)
            upper = lower + (self._vstrides[i] << d)
            sign = 1 - 2 * (popcount[mask[j] & ((1 << i) - 1)] % 2)
            self.faces[j, 2 * i] = np.searchsorted(self.closure, upper)
            self.faces[j, 2 * i + 1] = np.searchsorted(self.closure, lower)
            self.signs[j, 2 * i] = sign
            self.signs[j, 2 * i + 1] = -sign

        # kept: a coface in the region (state 1) and none in P0 (state 2)
        self.rows = np.flatnonzero(seen == 1)
        self.position = np.full(n + 1, -1, dtype=np.int64)
        self.position[self.rows] = np.arange(self.rows.size)
        self.dims = popcount[mask[self.rows]]
        self.qfaces = self.position.take(self.faces.take(self.rows, axis=0))
        # a cell is face slot s of at most one cell, so the scatter is exact
        self.qcof = np.full(self.qfaces.shape, -1, dtype=np.int32)
        for slot in range(2 * d):
            j = np.flatnonzero(self.qfaces[:, slot] >= 0)
            self.qcof[self.qfaces[j, slot], slot] = j
        self.qsigns = self.signs.take(self.rows, axis=0)

    def _decode(self, codes: np.ndarray):
        """(anchors (n, d), masks (n,)) of an array of codes."""
        d = self.grid.dimension
        lin = (codes >> d) % self._n_vertices
        anchors = np.stack(np.unravel_index(lin, self._vshape), axis=1)
        return anchors, codes & ((1 << d) - 1)

    def cell(self, code: int):
        """The (anchor tuple, mask) form of a code, for messages."""
        anchor, mask = self._decode(np.array([code], dtype=np.int64))
        return tuple(anchor[0].tolist()), int(mask[0])

    def quotient(self, chain: dict) -> dict:
        """A chain over codes restricted to the quotient, over positions."""
        out = {}
        for code, v in chain.items():
            row = int(self.closure.searchsorted(code))
            if (row < self.closure.size and self.closure[row] == code
                    and self.position[row] >= 0):
                out[int(self.position[row])] = v
        return out

    def boundary(self, j: int) -> dict:
        """del of the quotient cell at position j, within the quotient, as
        a dict position -> sign."""
        return {f: s for f, s in zip(self.qfaces[j].tolist(),
                                     self.qsigns[j].tolist()) if f >= 0}

    def __len__(self):
        return self.rows.size

    def n_cells(self, dim: int) -> int:
        return int(np.count_nonzero(self.dims == dim))


class HomologyBasis:
    """Homology of a PairComplex via sparse column reduction over F_p.

    Columns are in position order (R = D V), claimed in one numpy pass
    per dimension and reduced lazily and with clearing, as the module
    docstring describes.  _pivot[r] is the column whose reduced low is
    row r, -1 for none; _R holds the columns an elimination changed.  A
    column with zero reduced boundary whose own index is never a pivot
    is an essential cell; its V column is a representative cycle, and
    the only V column kept once its dimension is reduced.
    cocycles(dim) gives the dual cocycles, and project a relative
    cycle's coordinates by pairing with them.
    """

    def __init__(self, complex: PairComplex):
        self.complex = complex
        d = complex.grid.dimension
        bounds = np.searchsorted(complex.dims, np.arange(d + 2))
        lows = complex.qfaces.max(axis=1)

        self._R = {}  # columns an elimination changed, dict row -> coeff
        # row -> the column whose reduced low it is, -1 for none
        self._pivot = pivot = np.full(len(complex), -1, dtype=np.int64)
        self._V = {}  # dim -> {essential column: representative cycle}
        self._cocycles = {}  # dim -> dual cocycles, computed on first use
        for dim in reversed(range(d + 1)):
            a, b = int(bounds[dim]), int(bounds[dim + 1])
            # cleared columns are pivot rows of the dimension above
            live = a + np.flatnonzero(pivot[a:b] < 0)
            low = lows[live]
            # the first column with each low takes it as it stands: keys
            # sorted by (low, column) start a new low at each first column.
            # A plain sort of the keys, not a stable argsort, whose numpy
            # code adds 0.1 MB of resident pages to a run that has no other
            m = live.size
            key = np.sort(low * m + np.arange(m))
            row, at = key // m, key % m
            new = np.ones(m, dtype=bool)
            np.not_equal(row[1:], row[:-1], out=new[1:])
            first = at[new & (row >= 0)]
            pivot[low[first]] = live[first]
            collides = low >= 0
            collides[first] = False
            # no column one dimension up has its pivot on an essential row
            essential = {j: {j: 1} for j in live[low < 0].tolist()}
            heap = live[collides].tolist()  # increasing, so a min-heap
            V = {}  # the V columns other than {j: 1}

            def column(r):
                # only a column left of j, the one being eliminated, holds r
                k = int(pivot[r])
                if 0 <= k < j:
                    return self._column(k), V.get(k) or {k: 1}

            while heap:
                j = heapq.heappop(heap)
                rj, vj = complex.boundary(j), {j: 1}
                r = _eliminate(rj, vj, column, complex.prime)
                if r < 0:
                    essential[j] = vj
                    continue
                self._R[j], V[j] = rj, vj
                k = int(pivot[r])
                if k >= 0:  # k > j took r as it stood, so now it collides
                    heapq.heappush(heap, k)
                pivot[r] = j
            self._V[dim] = dict(sorted(essential.items()))

    def _column(self, k: int) -> dict:
        """Reduced column k; one that never changed is built on each read."""
        return self._R.get(k) or self.complex.boundary(k)

    def rank(self, dim: int) -> int:
        return len(self._V.get(dim, ()))

    def representatives(self, dim: int):
        """Cycle chains (position -> coeff dicts) generating H_dim."""
        return list(self._V.get(dim, {}).values())

    def cocycles(self, dim: int):
        """Cochains (position -> coeff dicts) zeta_i with delta(zeta_i) = 0
        and <zeta_i, z_j> = delta_ij for the representatives z_j, in the
        order of representatives(dim); computed on first use and checked."""
        out = self._cocycles.get(dim)
        if out is None:
            out = self._components() if dim == 0 else self._push_up(dim)
            self._check_cocycles(out, dim)
            self._cocycles[dim] = out
        return out

    def _components(self):
        """Dimension 0: a 0-cocycle is constant along every quotient edge
        with both faces in the quotient, so each cocycle is the indicator
        of its essential vertex's component of that 1-skeleton."""
        essential = list(self._V.get(0, {}))
        if not essential:
            return []
        cx = self.complex
        n0, n1 = np.searchsorted(cx.dims, [1, 2])
        # an edge has its upper and lower face in one pair of slots and -1
        # in the others; its lower face shares its anchor, so lower faces
        # run in position order and are the rows of a CSR matrix as they are
        ends = cx.qfaces[n0:n1]
        upper, lower = ends[:, 0], ends[:, 1]
        for i in range(1, cx.grid.dimension):
            upper = np.maximum(upper, ends[:, 2 * i])
            lower = np.maximum(lower, ends[:, 2 * i + 1])
        inner = (upper >= 0) & (lower >= 0)
        indptr = np.searchsorted(lower[inner], np.arange(n0 + 1))
        graph = csr_matrix((np.ones(indptr[-1]), upper[inner], indptr), shape=(n0, n0))
        _, labels = connected_components(graph, directed=False)
        return [dict.fromkeys(np.flatnonzero(labels == labels[i]).tolist(), 1)
                for i in essential]

    def _push_up(self, dim: int):
        """Dimension >= 1: zeta_i = e_i + sum of beta_l e_l over the pivot
        rows l of dimension dim.  A min-heap holds, by low, the pivot
        columns one dimension up whose reduced column meets the support;
        popping low l sets beta_l so that zeta_i vanishes on that column.
        Rows added later are above l, so it vanishes there for good."""
        cx, p, pivot = self.complex, self.complex.prime, self._pivot
        a, b = np.searchsorted(cx.dims, [dim + 1, dim + 2])
        changed = {}  # row -> changed pivot columns one dimension up
        for c, col in self._R.items():
            if a <= c < b:
                for r in col:
                    changed.setdefault(r, []).append(c)

        out = []
        for i in self._V.get(dim, {}):
            zeta, heap, queued = {i: 1}, [], set()

            def meet(r):
                cols = [c for c in cx.qcof[r].tolist() if c >= 0 and c not in self._R]
                for c in cols + changed.get(r, []):
                    if c not in queued:
                        queued.add(c)
                        col = self._column(c)
                        low = max(col)
                        if pivot[low] == c:
                            heapq.heappush(heap, (low, c, col))

            meet(i)
            while heap:
                low, _, col = heapq.heappop(heap)
                pair = _dot(zeta, col) % p
                if pair:
                    zeta[low] = (-pair * _inv_mod(col[low], p)) % p
                    meet(low)
            out.append(zeta)
        return out

    def _check_cocycles(self, cocycles, dim: int):
        """delta(zeta) = 0 on the cofaces of its support, and the pairing
        with the representatives is the identity; violations are bugs."""
        cx, p = self.complex, self.complex.prime
        reps = self.representatives(dim)
        for i, zeta in enumerate(cocycles):
            pos = np.fromiter(zeta, dtype=np.int64, count=len(zeta))
            val = np.fromiter(zeta.values(), dtype=np.int64, count=len(zeta))
            # delta(zeta) at coface c = qcof[r, s] sums zeta(r) times the
            # sign of face slot s of c over the support cells r
            cof = cx.qcof[pos]
            r, slot = np.nonzero(cof >= 0)
            c = cof[r, slot]
            delta = np.bincount(c, weights=val[r] * cx.qsigns[c, slot])
            bad = delta[c].astype(np.int64) % p
            if bad.any():
                cell = cx.cell(cx.closure[cx.rows[c[np.argmax(bad != 0)]]])
                raise BoxdynError(f"cochain {i} of dimension {dim} is not a "
                                  f"cocycle at {cell}")
            for j, z in enumerate(reps):
                if _dot(zeta, z) % p != int(i == j):
                    raise BoxdynError(f"cocycle {i} of dimension {dim} pairs to "
                                      f"a value other than delta_ij with cycle {j}")

    def pair(self, chain: dict, dim: int) -> np.ndarray:
        """(<zeta_i, chain>)_i over F_p, for any dim-chain."""
        p = self.complex.prime
        return np.array([_dot(zeta, chain) % p for zeta in self.cocycles(dim)],
                        dtype=np.int64)

    def project(self, chain: dict, dim: int) -> np.ndarray:
        """Coordinates of a relative cycle in the dim-homology basis."""
        bd = {}
        for j, v in chain.items():
            _axpy(bd, self.complex.boundary(j), v, self.complex.prime)
        if bd:
            raise BoxdynError("chain is not a relative cycle")
        return self.pair(chain, dim)

    def betti_numbers(self, max_dim: int):
        return [self.rank(k) for k in range(max_dim + 1)]


def _contract(chain: dict, lo, complex: PairComplex) -> dict:
    """Chain contraction of the full rectangle complex with base vertex lo.

    Solves del(c) = z for any cycle z (dim >= 1) or augmentation-zero
    0-chain z over codes, supported in the closed rectangle anchored at
    the vertex multi-index lo.  Tensor contraction: each axis collapses
    to its left endpoint in turn.
    """
    p, d = complex.prime, complex.grid.dimension
    n_vertices, vshape, vstrides = complex._n_vertices, complex._vshape, complex._vstrides
    up = n_vertices << d  # one dimension up, same anchor and mask
    out = {}
    for code, coef in chain.items():
        coef %= p
        if not coef:
            continue
        lin = (code >> d) % n_vertices
        for i in range(d):
            bit = 1 << i
            if code & bit:
                break  # h of an edge factor is zero; later axes blocked too
            shift = lo[i] - lin // vstrides[i] % vshape[i]
            step = vstrides[i] << d
            # the edges along axis i from lo[i] up to the anchor
            for k in range(shift, 0):
                key = code + up + bit + k * step
                nv = (out.get(key, 0) + coef) % p
                if nv:
                    out[key] = nv
                else:
                    out.pop(key, None)
            code += shift * step
            lin += shift * vstrides[i]
    return out


class ChainMapData(dict):
    """phi on the quotient cells, position -> chain over positions,
    computed on first lookup and memoized.

    A cell's image in the full complex, a chain over codes, depends only
    on its carrier rectangle and the images of its faces, so it is built
    faces first, on the cell's face closure only.  Restricted to the
    quotient, it must satisfy del(phi) = phi(del) before it is stored.
    """

    def __init__(self, complex: PairComplex, lo: np.ndarray, hi: np.ndarray,
                 vertex_rule: str):
        super().__init__()
        self.complex = complex
        self._lo, self._hi = lo, hi  # carriers' box corners per closure row
        corner = lo if vertex_rule == "smallest" else hi + 1
        self._vertex = (corner @ np.array(complex._vstrides)) << complex.grid.dimension
        self._full = {}  # closure row -> phi in the full complex

    def _phi_full(self, row: int) -> dict:
        out = self._full.get(row)
        if out is None:
            cx = self.complex
            if cx.closure[row] & ((1 << cx.grid.dimension) - 1):  # not a vertex
                rhs = {}
                for face, sign in zip(cx.faces[row].tolist(), cx.signs[row].tolist()):
                    if sign:
                        _axpy(rhs, self._phi_full(face), sign, cx.prime)
                out = _contract(rhs, self._lo[row].tolist(), cx)
            else:
                out = {int(self._vertex[row]): 1}
            self._full[row] = out
        return out

    def __missing__(self, j):
        cx = self.complex
        if not 0 <= j < len(cx):
            raise KeyError(j)
        image = cx.quotient(self._phi_full(int(cx.rows[j])))
        if cx.dims[j]:
            self._check_commutes(j, image)
        self[j] = image
        return image

    def _check_commutes(self, j: int, image: dict):
        """del(phi) = phi(del) must hold exactly; violations are bugs."""
        cx = self.complex
        lhs = {}
        for c, v in image.items():
            _axpy(lhs, cx.boundary(c), v, cx.prime)
        rhs = {}
        for face, sign in cx.boundary(j).items():
            _axpy(rhs, self[face], sign, cx.prime)
        if lhs != rhs:
            raise BoxdynError("chain map does not commute with boundary at "
                              f"{cx.cell(cx.closure[cx.rows[j]])}")

    def carriers_contain(self, positions: np.ndarray,
                         targets: np.ndarray) -> np.ndarray:
        """For each quotient cell in positions, whether its carrier
        rectangle, the vertex box [lo, hi + 1] that holds its phi,
        contains a cell of targets; phi of any other cell pairs to zero
        with a cochain supported on targets."""
        cx = self.complex
        d = cx.grid.dimension
        start, mask = cx._decode(cx.closure[cx.rows[targets]])
        end = start + ((mask[:, None] >> np.arange(d)) & 1)
        rows = cx.rows[positions]
        out = np.zeros(rows.size, dtype=bool)
        step = max(1, (1 << 20) // targets.size)  # bounds the block
        for k in range(0, rows.size, step):
            lo, hi = self._lo[rows[k:k + step]], self._hi[rows[k:k + step]] + 1
            inside = np.ones((lo.shape[0], targets.size), dtype=bool)
            for i in range(d):
                inside &= (lo[:, i, None] <= start[:, i]) & (end[:, i] <= hi[:, i, None])
            out[k:k + step] = inside.any(axis=1)
        return out


def chain_map(boxmap: BoxMap, complex: PairComplex,
              vertex_rule: str = "smallest") -> ChainMapData:
    """Endomorphism of the relative chain complex carried by the box map.

    Built in the full cubical complex and restricted to the quotient;
    cells outside the complex are dropped.  Every carrier is a box
    rectangle, where the boundary equation is solved by the chain
    contraction.  The carriers of the whole closure are computed and
    checked here; phi itself is evaluated on demand (cm[position]).
    vertex_rule "largest" picks the opposite corner in dim 0 (used to
    confirm choice-independence of the induced homology map).
    """
    slots = complex.cofaces.T  # one row of coface boxes per slot
    in_p1 = complex._in_p1
    exterior = boxmap.exterior

    # guard: a region box adjacent to an exterior box would let chains
    # escape the quotient through the shared face; refuse loudly.
    qbox = slots.take(complex.rows, axis=1)
    if ((qbox >= 0) & ~in_p1[qbox] & exterior[qbox]).any():
        raise BoxdynError("index pair touches exterior boxes; enlarge the "
                          "domain or refine the grid")

    # construction carriers: intersection of the P1 cofaces' target
    # ranges, slot by slot.  first is the P1 coface in the lowest slot; a
    # slot without a P1 coface reads it instead, which leaves the max and
    # min unchanged, so slot 0, which is first or reads it, is skipped.
    used = in_p1[slots]
    first = slots[0]
    for col, u in zip(slots[::-1], used[::-1]):
        first = np.where(u, col, first)
    lo, hi = boxmap.jmin.take(first, axis=0), boxmap.jmax.take(first, axis=0)
    outside = exterior[first]  # an exterior coface has no targets
    for col, u in zip(slots[1:], used[1:]):
        filled = np.where(u, col, first)
        np.maximum(lo, boxmap.jmin.take(filled, axis=0), out=lo)
        np.minimum(hi, boxmap.jmax.take(filled, axis=0), out=hi)
        outside |= exterior[filled]
    empty = ~used.any(axis=0) | (lo > hi).any(axis=1) | outside
    if empty.any():
        raise CarrierNotAcyclic(complex.cell(complex.closure[np.argmax(empty)]),
                                "carrier is empty")

    return ChainMapData(complex, lo, hi, vertex_rule)


def induced_homology_map(cm: ChainMapData, basis: HomologyBasis) -> dict:
    """Matrix of the chain map on H_k for each dimension, over F_p.

    Column j is sum over sigma of z_j(sigma) <zeta_i, phi(sigma)>, with phi
    computed only on the representative cells it can be nonzero on."""
    complex = cm.complex
    p = complex.prime
    out = {}
    for dim in range(complex.grid.dimension + 1):
        reps = basis.representatives(dim)
        mat = np.zeros((len(reps),) * 2, dtype=np.int64)
        if reps:
            cells = np.fromiter(set().union(*reps), dtype=np.int64)
            if dim:  # phi of a vertex is one vertex, cheaper than the test
                support = np.fromiter(set().union(*basis.cocycles(dim)),
                                      dtype=np.int64)
                cells = cells[cm.carriers_contain(cells, support)]
            pairs = {j: basis.pair(cm[j], dim) for j in cells.tolist()}
            for col, rep in enumerate(reps):
                for j, v in rep.items():
                    if j in pairs:
                        mat[:, col] += v * pairs[j]
            mat %= p
        out[dim] = mat
    return out

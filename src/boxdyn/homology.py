"""Cubical relative homology over a prime field and induced maps.

Cells of the grid's cubical complex are keyed by (anchor, mask): the
anchor is a vertex-lattice multi-index and the mask a bitset of the axes
along which the cell extends.  The relative complex of a pair of box
sets (P1, P0) is realized as the quotient: a cell survives iff it has at
least one coface box in P1 \\ P0 and none in P0.

The index map on homology is built as an acyclic-carrier chain map.
The carrier used for construction assigns to each cell the intersection
of the target ranges of its cofaces in P1.  A box map stores rectangle
target ranges, so this carrier is itself a box rectangle; it is
contained in the union carrier, shrinks as cells grow (so faces have
larger carriers), and on it the equation del(c) = phi(del(sigma)) is
solved in closed form by a chain contraction instead of linear algebra.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import BoxdynError, CarrierNotAcyclic
from .grid import CubicalGrid
from .outer_approx import BoxMap

# a cell is (anchor, mask); anchor a tuple over the vertex lattice,
# mask a bitset of extended axes.  chains are dicts cell -> coeff in F_p.


def cell_dim(cell) -> int:
    return bin(cell[1]).count("1")


def cell_faces(cell):
    """Boundary faces with signs: del(sigma) = sum sign * face."""
    anchor, mask = cell
    out = []
    below = 0
    for i in range(len(anchor)):
        bit = 1 << i
        if mask & bit:
            sign = 1 if below % 2 == 0 else -1
            upper = tuple(a + 1 if j == i else a for j, a in enumerate(anchor))
            out.append(((upper, mask & ~bit), sign))
            out.append(((anchor, mask & ~bit), -sign))
            below += 1
    return out


def cell_coface_boxes(cell, shape):
    """Top-dimensional boxes having the cell as a face, as multi-indices."""
    anchor, mask = cell
    d = len(anchor)
    free = [i for i in range(d) if not (mask >> i) & 1]
    out = []
    for choice in itertools.product((0, 1), repeat=len(free)):
        j = list(anchor)
        ok = True
        for i, c in zip(free, choice):
            j[i] = anchor[i] - c
            if not (0 <= j[i] < shape[i]):
                ok = False
                break
        for i in range(d):
            if (mask >> i) & 1 and not (0 <= j[i] < shape[i]):
                ok = False
        if ok:
            out.append(tuple(j))
    return out


def box_cells(j):
    """All 3^d faces (incl. the box itself) of the box at multi-index j."""
    d = len(j)
    out = []
    for mask in range(1 << d):
        free = [i for i in range(d) if not (mask >> i) & 1]
        for choice in itertools.product((0, 1), repeat=len(free)):
            anchor = list(j)
            for i, c in zip(free, choice):
                anchor[i] = j[i] + c
            out.append((tuple(anchor), mask))
    return out


# ---------------------------------------------------------------------------
# F_p helpers: dense elimination (index matrices, test oracles) and
# the sparse chain update

def _inv_mod(a: int, p: int) -> int:
    return pow(int(a) % p, p - 2, p)


def _row_reduce(mat: np.ndarray, p: int):
    """Gauss-Jordan elimination over F_p: (reduced row echelon form,
    pivot columns in increasing order)."""
    a = np.array(mat, dtype=np.int64) % p
    rows, cols = a.shape
    pivots = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        piv = np.flatnonzero(a[r:, c])
        if piv.size == 0:
            continue
        pr = r + piv[0]
        a[[r, pr]] = a[[pr, r]]
        a[r] = (a[r] * _inv_mod(a[r, c], p)) % p
        nz = np.flatnonzero(a[:, c])
        nz = nz[nz != r]
        a[nz] = (a[nz] - np.outer(a[nz, c], a[r])) % p
        pivots.append(c)
    return a, pivots


def rank_mod_p(mat: np.ndarray, p: int) -> int:
    """Rank of an integer matrix over F_p."""
    return len(_row_reduce(mat, p)[1])


def solve_mod_p(mat: np.ndarray, rhs: np.ndarray, p: int):
    """One solution of mat @ x = rhs over F_p, or None if inconsistent."""
    a = np.asarray(mat, dtype=np.int64)
    cols = a.shape[1]
    aug = np.hstack([a, np.asarray(rhs, dtype=np.int64).reshape(-1, 1)])
    rref, pivots = _row_reduce(aug, p)
    if pivots and pivots[-1] == cols:
        return None  # a pivot in the rhs column reads 0 = 1
    x = np.zeros(cols, dtype=np.int64)
    x[pivots] = rref[:len(pivots), cols]
    return x


def _axpy(dst: dict, src: dict, coef: int, p: int) -> None:
    """dst += coef * src over F_p for sparse chains, in place; entries
    that become zero are dropped."""
    for key, v in src.items():
        nv = (dst.get(key, 0) + coef * v) % p
        if nv:
            dst[key] = nv
        else:
            dst.pop(key, None)


# ---------------------------------------------------------------------------


class PairComplex:
    """Relative (quotient) cubical complex of a box-set pair on a grid.

    Only cells carrying relative chains are stored: those with a coface
    box in region = P1 \\ P0 and no coface box in P0.  Every coface in P1
    of such a cell is a region box, so the complex is small whenever the
    region is, regardless of how large P1 is.  closure keeps every face
    of a region box, in reduction order; the chain map is built on it.
    """

    def __init__(self, grid: CubicalGrid, p1, p0, prime: int = 5):
        if prime < 2 or any(prime % k == 0 for k in range(2, int(prime**0.5) + 1)):
            raise BoxdynError(f"field order must be prime, got {prime}")
        self.grid = grid
        self.prime = int(prime)
        self.p1 = frozenset(int(b) for b in p1)
        self.p0 = frozenset(int(b) for b in p0)
        if not self.p0 <= self.p1:
            raise BoxdynError("P0 must be a subset of P1")
        self.region = self.p1 - self.p0
        shape = grid.shape

        closure = set()
        for lin in self.region:
            closure.update(box_cells(grid.multi_index(lin)))
        # reduction order: dimension, then lexicographic
        self.closure = sorted(closure, key=lambda c: (cell_dim(c), c[0], c[1]))
        cells = []
        for cell in self.closure:
            cofaces = cell_coface_boxes(cell, shape)
            lins = [grid.linearize(c) for c in cofaces]
            if any(l in self.p0 for l in lins):
                continue
            if any(l in self.region for l in lins):
                cells.append(cell)
        self.cells = cells
        self.cell_index = {c: i for i, c in enumerate(cells)}
        self.dims = np.array([cell_dim(c) for c in cells], dtype=np.int64)

    def __len__(self):
        return len(self.cells)

    def n_cells(self, dim: int) -> int:
        return int(np.count_nonzero(self.dims == dim))

    def boundary_chain(self, cell) -> dict:
        """Boundary within the quotient: faces outside the complex vanish."""
        p = self.prime
        out = {}
        for face, sign in cell_faces(cell):
            if face in self.cell_index:
                out[face] = (out.get(face, 0) + sign) % p
        return {c: v for c, v in out.items() if v}

    def boundary_matrix(self, dim: int) -> np.ndarray:
        """Dense boundary matrix C_dim -> C_{dim-1}; rows/cols in cell order."""
        rows = [c for c in self.cells if cell_dim(c) == dim - 1]
        cols = [c for c in self.cells if cell_dim(c) == dim]
        ridx = {c: i for i, c in enumerate(rows)}
        mat = np.zeros((len(rows), len(cols)), dtype=np.int64)
        for jc, cell in enumerate(cols):
            for face, v in self.boundary_chain(cell).items():
                mat[ridx[face], jc] = v
        return mat


class HomologyBasis:
    """Homology of a PairComplex via sparse column reduction over F_p.

    The boundary matrix, columns ordered by dimension then lex, is
    reduced left to right (persistence-style, R = D V).  Columns with
    zero reduced boundary whose own index is never a pivot are the
    essential cells; their V columns are representative cycles.  project
    expresses any relative cycle in those representatives by repeated
    pivot elimination.
    """

    def __init__(self, complex: PairComplex):
        self.complex = complex
        p = complex.prime
        n = len(complex.cells)
        idx = complex.cell_index

        R = []  # reduced boundary columns, dict row -> coeff
        V = []  # change-of-basis columns, dict row -> coeff
        pivot_of = {}  # low row -> column index with that pivot
        for j, cell in enumerate(complex.cells):
            rj = {idx[f]: v for f, v in complex.boundary_chain(cell).items()}
            vj = {j: 1}
            while rj:
                low = max(rj)
                k = pivot_of.get(low)
                if k is None:
                    break
                coef = (rj[low] * _inv_mod(R[k][low], p)) % p
                _axpy(rj, R[k], -coef, p)
                _axpy(vj, V[k], -coef, p)
            R.append(rj)
            V.append(vj)
            if rj:
                pivot_of[max(rj)] = j

        self._R = R
        self._V = V
        self._pivot_of = pivot_of
        essential = [j for j in range(n) if not R[j] and j not in pivot_of]
        self._by_dim = {}
        for j in essential:
            self._by_dim.setdefault(int(complex.dims[j]), []).append(j)

    def rank(self, dim: int) -> int:
        return len(self._by_dim.get(dim, []))

    def representatives(self, dim: int):
        """Cycle chains (cell -> coeff dicts) generating H_dim."""
        cells = self.complex.cells
        out = []
        for j in self._by_dim.get(dim, []):
            out.append({cells[r]: v for r, v in self._V[j].items()})
        return out

    def project(self, chain: dict, dim: int) -> np.ndarray:
        """Coordinates of a relative cycle in the dim-homology basis."""
        p = self.complex.prime
        idx = self.complex.cell_index
        vec = {}
        for cell, v in chain.items():
            v %= p
            if v:
                vec[idx[cell]] = v
        coords = np.zeros(self.rank(dim), dtype=np.int64)
        order = self._by_dim.get(dim, [])
        pos = {j: i for i, j in enumerate(order)}
        while vec:
            low = max(vec)
            k = self._pivot_of.get(low)
            if k is not None:
                # subtract the boundary column R_k: changes nothing in homology
                coef = (vec[low] * _inv_mod(self._R[k][low], p)) % p
                src = self._R[k]
            elif low in pos:
                # essential representative V_low has unit pivot at its own index
                coef = vec[low] % p
                coords[pos[low]] = (coords[pos[low]] + coef) % p
                src = self._V[low]
            else:
                raise BoxdynError("chain is not a relative cycle")
            _axpy(vec, src, -coef, p)
        return coords

    def betti_numbers(self, max_dim: int):
        return [self.rank(k) for k in range(max_dim + 1)]


# ---------------------------------------------------------------------------
# carriers and the chain map


def carrier(boxmap: BoxMap, complex: PairComplex, cell) -> np.ndarray:
    """Declared carrier: union of targets over P1 cofaces, within P1."""
    grid = boxmap.grid
    out = set()
    for j in cell_coface_boxes(cell, grid.shape):
        lin = grid.linearize(j)
        if lin in complex.p1:
            out.update(int(t) for t in boxmap.targets(lin))
    return np.array(sorted(out & complex.p1), dtype=np.int64)


def _carrier_rect(boxmap: BoxMap, complex: PairComplex, cell):
    """Construction carrier as an index rectangle: intersection of the
    target ranges over the cell's P1 cofaces.  Returns (lo, hi) arrays or
    None when the intersection is empty."""
    grid = boxmap.grid
    lo = None
    for j in cell_coface_boxes(cell, grid.shape):
        lin = grid.linearize(j)
        if lin not in complex.p1:
            continue
        jmin, jmax = boxmap.target_ranges(lin)
        if lo is None:
            lo, hi = jmin.astype(np.int64).copy(), jmax.astype(np.int64).copy()
        else:
            lo = np.maximum(lo, jmin)
            hi = np.minimum(hi, jmax)
    if lo is None or np.any(lo > hi):
        return None
    return lo, hi


def _contract(chain: dict, lo: np.ndarray, p: int) -> dict:
    """Chain contraction of the full rectangle complex with base vertex lo.

    Solves del(c) = z for any cycle z (dim >= 1) or augmentation-zero
    0-chain z supported in the closed rectangle anchored at lo.  Tensor
    contraction: each axis collapses to its left endpoint in turn.
    """
    out = {}
    for (anchor, mask), coef in chain.items():
        coef %= p
        if not coef:
            continue
        d = len(anchor)
        for i in range(d):
            if (mask >> i) & 1:
                break  # h of an edge factor is zero; later axes blocked too
            lo_i = int(lo[i])
            base = tuple(int(lo[k]) if k < i else anchor[k] for k in range(d))
            for j in range(lo_i, anchor[i]):
                a = tuple(j if k == i else base[k] for k in range(d))
                key = (a, mask | (1 << i))
                nv = (out.get(key, 0) + coef) % p
                if nv:
                    out[key] = nv
                else:
                    out.pop(key, None)
    return out


class ChainMapData:
    """phi per cell of a relative complex."""

    def __init__(self, complex: PairComplex, phi: dict):
        self.complex = complex
        self.phi = phi  # cell -> chain over complex cells (quotient)

    def apply(self, chain: dict) -> dict:
        p = self.complex.prime
        out = {}
        for cell, coef in chain.items():
            _axpy(out, self.phi[cell], coef, p)
        return out


def chain_map(boxmap: BoxMap, complex: PairComplex,
              vertex_rule: str = "smallest") -> ChainMapData:
    """Endomorphism of the relative chain complex carried by the box map.

    Built in the full cubical complex dimension by dimension and then
    projected to the quotient; cells outside the complex are dropped.
    Every carrier is a box rectangle, where the boundary equation is
    solved by the chain contraction.
    vertex_rule "largest" picks the opposite corner in dim 0 (used to
    confirm choice-independence of the induced homology map).
    """
    grid = boxmap.grid
    p = complex.prime

    # guard: a region box adjacent to an exterior box would let chains
    # escape the quotient through the shared face; refuse loudly.
    for cell in complex.cells:
        for j in cell_coface_boxes(cell, grid.shape):
            lin = grid.linearize(j)
            if lin not in complex.p1 and boxmap.exterior[lin]:
                raise BoxdynError(
                    "index pair touches exterior boxes; enlarge the domain "
                    "or refine the grid"
                )

    # built on the closure of the region, faces before their cofaces
    phi_full = {}
    for cell in complex.closure:
        rect = _carrier_rect(boxmap, complex, cell)
        if rect is None:
            raise CarrierNotAcyclic(cell, "carrier is empty")
        lo, hi = rect
        if cell_dim(cell) == 0:
            corner = lo if vertex_rule == "smallest" else hi + 1
            phi_full[cell] = {(tuple(int(v) for v in corner), 0): 1}
        else:
            rhs = {}
            for face, sign in cell_faces(cell):
                _axpy(rhs, phi_full[face], sign, p)
            phi_full[cell] = _contract(rhs, lo, p)

    # project to the quotient
    phi = {cell: {c2: v for c2, v in phi_full[cell].items()
                  if c2 in complex.cell_index}
           for cell in complex.cells}

    cm = ChainMapData(complex, phi)
    _assert_chain_map(cm)
    return cm


def _assert_chain_map(cm: ChainMapData):
    """del(phi) = phi(del) must hold exactly; violations are bugs."""
    complex = cm.complex
    p = complex.prime
    for cell in complex.cells:
        if cell_dim(cell) == 0:
            continue
        lhs = {}
        for c2, v in cm.phi[cell].items():
            _axpy(lhs, complex.boundary_chain(c2), v, p)
        rhs = {}
        for face, sign in cell_faces(cell):
            if face in complex.cell_index:
                _axpy(rhs, cm.phi[face], sign, p)
        if lhs != rhs:
            raise BoxdynError(f"chain map does not commute with boundary at {cell}")


def induced_homology_map(cm: ChainMapData, basis: HomologyBasis) -> dict:
    """Matrix of the chain map on H_k for each dimension, over F_p."""
    complex = cm.complex
    out = {}
    for dim in range(complex.grid.dimension + 1):
        r = basis.rank(dim)
        mat = np.zeros((r, r), dtype=np.int64)
        for j, rep in enumerate(basis.representatives(dim)):
            mat[:, j] = basis.project(cm.apply(rep), dim)
        out[dim] = mat
    return out

"""Cubical relative homology over a prime field and induced maps.

Cells of the grid's cubical complex are keyed by (anchor, mask): the
anchor is a vertex-lattice multi-index and the mask a bitset of the axes
along which the cell extends.  The relative complex of a pair of box
sets (P1, P0) is realized as the quotient: a cell survives iff it has at
least one coface box in P1 \\ P0 and none in P0.  PairComplex builds it
in a few numpy passes over flat integer codes (dimension, then the
anchor's vertex-lattice index, then the mask), whose sorted order is the
reduction order.

Homology comes from a column reduction R = D V that runs from the top
dimension down with clearing (Chen and Kerber, Persistent homology
computation with a twist, 2011): a column whose index is the pivot row
of a column one dimension up is a cycle, so it is set to zero without
being reduced.  Columns reduce only against columns of their own
dimension, so every other column, the essential cells and the
representatives are those of a plain left-to-right reduction.

The index map on homology is built as an acyclic-carrier chain map.
The carrier used for construction assigns to each cell the intersection
of the target ranges of its cofaces in P1.  A box map stores rectangle
target ranges, so this carrier is itself a box rectangle, contained in
the union carrier.  A face has every coface box of its cell and more,
so faces have smaller carriers: phi(del(sigma)) lies in sigma's
rectangle, where del(c) = phi(del(sigma)) is solved in closed form by a
chain contraction instead of linear algebra.  phi is evaluated on
demand, from the faces up, only on the cells the index reads (the
homology representatives and their faces), and del(phi) = phi(del) is
checked on every cell whose phi is computed.
"""

from __future__ import annotations

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


def _box_mask(grid: CubicalGrid, boxes) -> np.ndarray:
    """Membership of linear box indices; the extra last slot stays False
    and answers for the index -1."""
    if not isinstance(boxes, np.ndarray):
        boxes = list(boxes)
    mask = np.zeros(grid.box_count + 1, dtype=bool)
    mask[np.asarray(boxes, dtype=np.int64)] = True
    return mask


class PairComplex:
    """Relative (quotient) cubical complex of a box-set pair on a grid.

    Only cells carrying relative chains are stored: those with a coface
    box in region = P1 \\ P0 and no coface box in P0.  Every coface in P1
    of such a cell is a region box, so the complex is small whenever the
    region is, regardless of how large P1 is.

    closure holds the code of every face of a region box, in reduction
    order; a code is (dim * n_vertices + anchor) * 2^d + mask, with the
    anchor's linear index on the vertex lattice.  cofaces[i] lists the
    linear indices of closure cell i's coface boxes, -1 where a box is
    absent (off the grid, or not a coface because the cell extends along
    that axis); column k is the box anchor - bits(k).
    """

    def __init__(self, grid: CubicalGrid, p1, p0, prime: int = 5):
        if prime < 2 or any(prime % k == 0 for k in range(2, int(prime**0.5) + 1)):
            raise BoxdynError(f"field order must be prime, got {prime}")
        self.grid = grid
        self.prime = int(prime)
        self._in_p1 = _box_mask(grid, p1)
        in_p0 = _box_mask(grid, p0)
        if (in_p0 & ~self._in_p1).any():
            raise BoxdynError("P0 must be a subset of P1")
        region = np.flatnonzero(self._in_p1 & ~in_p0)
        self.p1 = frozenset(np.flatnonzero(self._in_p1).tolist())
        self.p0 = frozenset(np.flatnonzero(in_p0).tolist())
        self.region = frozenset(region.tolist())

        d = grid.dimension
        shape = np.asarray(grid.shape, dtype=np.int64)
        self._vshape = tuple(int(s) + 1 for s in shape)
        self._vstrides = [int(np.prod(self._vshape[i + 1:])) for i in range(d)]
        self._n_vertices = int(np.prod(self._vshape))
        # bits[k, i] = bit i of k, for k < 2^d
        bits = (np.arange(1 << d)[:, None] >> np.arange(d)) & 1
        self._popcount = bits.sum(axis=1)

        # the 3^d faces of box j: anchor j + bits(o), mask m, o & m == 0
        o, m = np.nonzero((np.arange(1 << d)[:, None] & np.arange(1 << d)) == 0)
        box_j = np.stack(np.unravel_index(region, grid.shape), axis=1)
        anchors = (box_j[:, None, :] + bits[o]).reshape(-1, d)
        masks = np.tile(m, region.size)
        lin = np.ravel_multi_index(tuple(anchors.T), self._vshape)
        self.closure = np.unique(
            ((self._popcount[masks] * self._n_vertices + lin) << d) + masks)

        anchor, mask = self._decode(self.closure)
        boxes = anchor[:, None, :] - bits  # (n, 2^d, d)
        present = (((mask[:, None] & np.arange(1 << d)) == 0)
                   & np.all((boxes >= 0) & (boxes < shape), axis=2))
        strides = np.array([int(np.prod(grid.shape[i + 1:])) for i in range(d)],
                           dtype=np.int64)
        self.cofaces = np.where(present, boxes @ strides, -1)

        keep = (self._in_p1[self.cofaces].any(axis=1)
                & ~in_p0[self.cofaces].any(axis=1))
        self._rows = np.flatnonzero(keep)  # closure rows of the quotient
        self._keys = self.closure[self._rows]
        self.dims = self._popcount[mask[self._rows]]
        self.cells = [(tuple(a), int(b)) for a, b in
                      zip(anchor[self._rows].tolist(), mask[self._rows].tolist())]
        self.cell_index = {c: i for i, c in enumerate(self.cells)}

    def _decode(self, codes: np.ndarray):
        """(anchors (n, d), masks (n,)) of an array of codes."""
        d = self.grid.dimension
        lin = (codes >> d) % self._n_vertices
        anchors = np.stack(np.unravel_index(lin, self._vshape), axis=1)
        return anchors, codes & ((1 << d) - 1)

    def _code(self, cell) -> int:
        anchor, mask = cell
        lin = sum(a * s for a, s in zip(anchor, self._vstrides))
        return ((cell_dim(cell) * self._n_vertices + lin) << len(anchor)) + mask

    def _closure_row(self, cell) -> int:
        """Row of a cell in closure (and cofaces)."""
        code = self._code(cell)
        row = int(np.searchsorted(self.closure, code))
        if row == self.closure.size or self.closure[row] != code:
            raise KeyError(cell)
        return row

    def _closure_cell(self, row: int):
        """The (anchor, mask) cell at a closure row."""
        anchor, mask = self._decode(self.closure[row:row + 1])
        return tuple(anchor[0].tolist()), int(mask[0])

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

    def _boundary_columns(self):
        """Sparse boundary matrix over cell positions, from the codes.

        Returns (indptr, rows, values) as lists: column j's nonzeros are
        rows[indptr[j]:indptr[j + 1]], faces outside the complex dropped.
        """
        d = self.grid.dimension
        anchor_step = np.asarray(self._vstrides, dtype=np.int64) << d
        masks = self._keys & ((1 << d) - 1)
        cols, rows, vals = [], [], []
        for i in range(d):
            j = np.flatnonzero((masks >> i) & 1)
            # (-1)^(extended axes below i); the upper face gets it
            sign = 1 - 2 * (self._popcount[masks[j] & ((1 << i) - 1)] % 2)
            lower = self._keys[j] - (self._n_vertices << d) - (1 << i)
            for face, s in ((lower + anchor_step[i], sign), (lower, -sign)):
                pos = np.searchsorted(self._keys, face)
                hit = pos < self._keys.size
                hit[hit] = self._keys[pos[hit]] == face[hit]
                cols.append(j[hit])
                rows.append(pos[hit])
                vals.append(s[hit] % self.prime)
        cols = np.concatenate(cols)
        order = np.argsort(cols, kind="stable")
        indptr = np.zeros(len(self.cells) + 1, dtype=np.int64)
        np.cumsum(np.bincount(cols, minlength=len(self.cells)), out=indptr[1:])
        return (indptr.tolist(), np.concatenate(rows)[order].tolist(),
                np.concatenate(vals)[order].tolist())

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

    The boundary matrix has its columns ordered by dimension then lex
    (persistence-style, R = D V).  Dimensions are reduced from the top
    down; within one, columns reduce left to right against earlier
    columns of the same dimension.  A column whose index is already the
    pivot (lowest row) of a column one dimension up is a cycle and is
    cleared without being reduced.  Columns with zero reduced boundary
    whose own index is never a pivot are the essential cells; their V
    columns are representative cycles.  project expresses any relative
    cycle in those representatives by repeated pivot elimination.
    """

    def __init__(self, complex: PairComplex):
        self.complex = complex
        p = complex.prime
        indptr, rows, vals = complex._boundary_columns()
        bounds = np.searchsorted(complex.dims, np.arange(complex.grid.dimension + 2))

        R = {}  # nonzero reduced boundary columns, dict row -> coeff
        V = {}  # change-of-basis columns of the pivot and essential columns
        pivot_of = {}  # low row -> column index with that pivot
        self._by_dim = {}
        for dim in reversed(range(complex.grid.dimension + 1)):
            for j in range(int(bounds[dim]), int(bounds[dim + 1])):
                if j in pivot_of:
                    continue  # cleared: its reduced boundary is zero
                a, b = indptr[j], indptr[j + 1]
                rj = dict(zip(rows[a:b], vals[a:b]))
                vj = {j: 1}
                while rj:
                    low = max(rj)
                    k = pivot_of.get(low)
                    if k is None:
                        break
                    coef = (rj[low] * _inv_mod(R[k][low], p)) % p
                    _axpy(rj, R[k], -coef, p)
                    _axpy(vj, V[k], -coef, p)
                V[j] = vj
                if rj:
                    R[j] = rj
                    pivot_of[max(rj)] = j
                else:
                    # only a column one dimension up, all reduced by
                    # now, could have had its pivot on row j
                    self._by_dim.setdefault(dim, []).append(j)

        self._R = R
        self._V = V
        self._pivot_of = pivot_of

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


class _LazyPhi(dict):
    """phi on the quotient cells, computed on first lookup and memoized.

    A cell's image in the full complex depends only on its carrier
    rectangle and the images of its faces, so it is built faces first,
    on the cell's face closure only.  Projected to the quotient, it must
    satisfy del(phi) = phi(del) before it is stored.
    """

    def __init__(self, complex: PairComplex, lo: np.ndarray, hi: np.ndarray,
                 vertex_rule: str):
        super().__init__()
        self.complex = complex
        self._lo = lo
        self._hi = hi
        self._vertex_rule = vertex_rule
        self._full = {}  # closure cell -> phi in the full complex

    def _phi_full(self, cell) -> dict:
        out = self._full.get(cell)
        if out is None:
            row = self.complex._closure_row(cell)
            lo = self._lo[row]
            if cell[1] == 0:
                corner = lo if self._vertex_rule == "smallest" else self._hi[row] + 1
                out = {(tuple(int(v) for v in corner), 0): 1}
            else:
                rhs = {}
                for face, sign in cell_faces(cell):
                    _axpy(rhs, self._phi_full(face), sign, self.complex.prime)
                out = _contract(rhs, lo, self.complex.prime)
            self._full[cell] = out
        return out

    def __missing__(self, cell):
        idx = self.complex.cell_index
        if cell not in idx:
            raise KeyError(cell)
        image = {c: v for c, v in self._phi_full(cell).items() if c in idx}
        if cell[1]:
            self._check_commutes(cell, image)
        self[cell] = image
        return image

    def _check_commutes(self, cell, image: dict):
        """del(phi) = phi(del) must hold exactly; violations are bugs."""
        complex = self.complex
        p = complex.prime
        lhs = {}
        for c2, v in image.items():
            _axpy(lhs, complex.boundary_chain(c2), v, p)
        rhs = {}
        for face, sign in cell_faces(cell):
            if face in complex.cell_index:
                _axpy(rhs, self[face], sign, p)
        if lhs != rhs:
            raise BoxdynError(f"chain map does not commute with boundary at {cell}")


class ChainMapData:
    """phi per cell of a relative complex; phi[cell] is computed on
    first lookup."""

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

    Built in the full cubical complex and projected to the quotient;
    cells outside the complex are dropped.  Every carrier is a box
    rectangle, where the boundary equation is solved by the chain
    contraction.  The carriers of the whole closure are computed and
    checked here; phi itself is evaluated on demand (ChainMapData.phi).
    vertex_rule "largest" picks the opposite corner in dim 0 (used to
    confirm choice-independence of the induced homology map).
    """
    cof = complex.cofaces
    in_p1 = complex._in_p1
    exterior = boxmap.exterior

    # guard: a region box adjacent to an exterior box would let chains
    # escape the quotient through the shared face; refuse loudly.
    qcof = cof[complex._rows]
    if ((qcof >= 0) & ~in_p1[qcof] & exterior[qcof]).any():
        raise BoxdynError(
            "index pair touches exterior boxes; enlarge the domain "
            "or refine the grid"
        )

    # construction carriers: intersection of the P1 cofaces' target
    # ranges; an exterior coface has no targets
    used = in_p1[cof]
    p1cof = np.where(used, cof, -1)
    lo = np.max(boxmap.jmin[p1cof], axis=1, where=used[..., None],
                initial=np.iinfo(boxmap.jmin.dtype).min)
    hi = np.min(boxmap.jmax[p1cof], axis=1, where=used[..., None],
                initial=np.iinfo(boxmap.jmax.dtype).max)
    empty = (~used.any(axis=1) | (lo > hi).any(axis=1)
             | (used & exterior[p1cof]).any(axis=1))
    if empty.any():
        raise CarrierNotAcyclic(complex._closure_cell(int(np.argmax(empty))),
                                "carrier is empty")

    return ChainMapData(complex, _LazyPhi(complex, lo, hi, vertex_rule))


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

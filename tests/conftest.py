"""Shared helpers: hand-built digraph box maps, brute-force oracles,
scalar reference implementations and the shared Leslie 9x9 analysis.

The brute-force routines here are deliberately independent of the library
internals (Floyd-Warshall closures, dense Gauss-Jordan rank, solve and
eventual-image counts, per-cell coface loops) so the fast implementations
are checked against slow-but-obvious ones.
"""

import itertools
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from boxdyn import (CubicalGrid, LeslieOracle, PhaseSpace, Rect, build_boxmap,
                    condensation, conley_index, morse_graph)
from boxdyn.homology import _inv_mod


def digraph_boxmap(n, edges, depth=None):
    """Stand-in for a BoxMap realizing an arbitrary digraph on n nodes.

    Nodes are the first n boxes of a 1-D grid; edges is an iterable of
    (source, target) pairs.  It carries what the graph algorithms read
    from a box map: grid, n_boxes, exterior, expand(rows) and graph(rows).
    graph is expand plus the rows' edge count and self-loops: the
    stand-in makes no hubs, and it is only used on a single level
    holding every box, so no remap is needed.
    """
    if depth is None:
        depth = max(1, math.ceil(math.log2(max(n, 2))))
    grid = CubicalGrid(PhaseSpace([0.0], [float(1 << depth)]), [depth])
    pairs = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
    adj = csr_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
                     shape=(n, n))
    adj.sum_duplicates()

    def expand(rows):
        sub = adj[np.asarray(rows, dtype=np.int64)]
        return sub.indptr, sub.indices

    def graph(rows):
        indptr, indices = expand(rows)
        return indptr, indices, int(indptr[-1]), adj.diagonal()[rows] != 0

    return SimpleNamespace(grid=grid, n_boxes=n,
                           exterior=np.zeros(n, dtype=bool), expand=expand,
                           graph=graph)


def criterion6_pairs():
    """The 160 trajectory pairs of acceptance criterion 6, as arrays
    (xs, ys): 16 Leslie (23.5, 23.5) trajectories of 10 steps each, from
    seeds uniform in [0, 90] x [0, 70]."""
    rng = np.random.default_rng(20260826)
    oracle = LeslieOracle((23.5, 23.5))
    xs, ys = [], []
    for _ in range(16):  # D(10, 16): 16 seeds, 10 steps each
        x = np.array([rng.uniform(0, 90), rng.uniform(0, 70)])
        for _ in range(10):
            fx = oracle.eval(x)
            xs.append(x)
            ys.append(fx)
            x = fx
    return np.array(xs), np.array(ys)


def dag_edges(cond):
    """Deduplicated edges between distinct components of a condensation."""
    bm = cond.boxmap
    indptr, indices = bm.expand(np.arange(bm.n_boxes))
    rows = np.repeat(np.arange(bm.n_boxes), np.diff(indptr))
    cs, ct = cond.comp_of[rows], cond.comp_of[indices]
    keep = cs != ct
    return set(zip(cs[keep].tolist(), ct[keep].tolist()))


def half_diameter(rect):
    """Half the Euclidean diameter of a Rect."""
    return 0.5 * float(np.linalg.norm(rect.upper - rect.lower))


def contains_point(rect, x):
    x = np.asarray(x, dtype=float)
    return bool(np.all(x >= rect.lower) and np.all(x <= rect.upper))


def grid_diameter(grid):
    """Euclidean diameter of a single box of the grid."""
    return float(np.linalg.norm(grid.widths))


def box_rect(grid, index):
    """Closed realization of a box given by multi-index."""
    index = tuple(index)
    lo = np.array([grid.faces[i][index[i]] for i in range(grid.dimension)])
    hi = np.array([grid.faces[i][index[i] + 1] for i in range(grid.dimension)])
    return Rect(lo, hi)


def stacked(enclosure, shape):
    """Per-coordinate bounds (lo, hi), as enclosures and image_rects give
    them, broadcast to the box shape and stacked as (n, d) arrays, boxes
    in C order."""
    return tuple(
        np.stack([np.broadcast_to(x, shape) for x in bounds],
                 axis=-1).reshape(-1, len(bounds))
        for bounds in enclosure)


def leslie_enclosures(theta, faces):
    """Leslie image enclosures, box by box: the closed form in theta1 ==
    theta2 (g(s) = theta*s*exp(-0.1*s) at the corner sums, its peak
    g(10) on the boxes whose sums straddle 10), otherwise the interval
    product of t1*x1 + t2*x2 and exp(-0.1*s); the second coordinate is
    0.7*x1.  The reference for LeslieOracle.enclosures, which shares
    each vertex sum between the boxes that meet it."""
    t1, t2 = theta
    mesh = np.meshgrid(*[f[:-1] for f in faces], indexing="ij")
    lo = np.stack(mesh, axis=-1).reshape(-1, 2)
    mesh = np.meshgrid(*[f[1:] for f in faces], indexing="ij")
    hi = np.stack(mesh, axis=-1).reshape(-1, 2)
    s_lo = lo[:, 0] + lo[:, 1]
    s_hi = hi[:, 0] + hi[:, 1]
    if t1 == t2:
        g_lo = t1 * s_lo * np.exp(-0.1 * s_lo)
        g_hi = t1 * s_hi * np.exp(-0.1 * s_hi)
        f_lo = np.minimum(g_lo, g_hi)
        f_hi = np.maximum(g_lo, g_hi)
        peak = (s_lo <= 10.0) & (10.0 <= s_hi)
        f_hi = np.where(peak, max(t1 * 10.0 * math.exp(-1.0), 0.0), f_hi)
        f_lo = np.where(peak & (t1 < 0), t1 * 10.0 * math.exp(-1.0), f_lo)
    else:
        w_lo = (min(t1, 0.0) * hi[:, 0] + max(t1, 0.0) * lo[:, 0]
                + min(t2, 0.0) * hi[:, 1] + max(t2, 0.0) * lo[:, 1])
        w_hi = (min(t1, 0.0) * lo[:, 0] + max(t1, 0.0) * hi[:, 0]
                + min(t2, 0.0) * lo[:, 1] + max(t2, 0.0) * hi[:, 1])
        e_lo = np.exp(-0.1 * s_hi)
        e_hi = np.exp(-0.1 * s_lo)
        prods = np.stack([w_lo * e_lo, w_lo * e_hi, w_hi * e_lo, w_hi * e_hi])
        f_lo, f_hi = prods.min(axis=0), prods.max(axis=0)
    return (np.column_stack([f_lo, 0.7 * lo[:, 0]]),
            np.column_stack([f_hi, 0.7 * hi[:, 0]]))


def index_ranges(grid, r):
    """Inclusive per-axis index range of the boxes meeting r, or None.

    Closed-box semantics: a rectangle touching a face meets the boxes
    on both sides.
    """
    lo, hi = [], []
    for i in range(grid.dimension):
        jmin = int(np.searchsorted(grid.faces[i], r.lower[i], side="left")) - 1
        jmax = int(np.searchsorted(grid.faces[i], r.upper[i], side="right")) - 1
        if jmax < 0 or jmin > grid.shape[i] - 1:
            return None
        lo.append(max(jmin, 0))
        hi.append(min(jmax, grid.shape[i] - 1))
    return tuple(lo), tuple(hi)


def boxes_intersecting(grid, r):
    """All boxes whose closed realization meets r, in lex index order."""
    rng = index_ranges(grid, r)
    if rng is None:
        return []
    lo, hi = rng
    return list(itertools.product(*[range(lo[i], hi[i] + 1)
                                     for i in range(grid.dimension)]))


def reachability_closure(n, edges):
    """Floyd-Warshall style boolean transitive closure (walks of length >= 1)."""
    reach = np.zeros((n, n), dtype=bool)
    for s, t in edges:
        reach[s, t] = True
    for k in range(n):
        reach |= reach[:, k][:, None] & reach[k, :][None, :]
    return reach


def brute_sccs(n, edges):
    """SCC partition + recurrence flags from the reachability closure.

    Returns (components, recurrent) where components is a list of sorted
    node lists and recurrent marks components containing an edge (mutual
    reachability through walks of length >= 1, or a self-loop).
    """
    reach = reachability_closure(n, edges)
    comp_of = [-1] * n
    components = []
    for v in range(n):
        if comp_of[v] != -1:
            continue
        comp = [w for w in range(n)
                if w == v or (reach[v, w] and reach[w, v])]
        for w in comp:
            comp_of[w] = len(components)
        components.append(comp)
    recurrent = [bool(reach[c[0], c[0]]) if len(c) == 1 else True
                 for c in components]
    return components, recurrent


def cell_faces(cell):
    """Boundary faces with signs of an (anchor, mask) cell: del(sigma) =
    sum sign * face.  The scalar reference for PairComplex.faces/signs."""
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


def decode(complex, code):
    """(anchor, mask) of a cell code (dim * n_vertices + anchor) * 2^d +
    mask, the anchor a multi-index on the vertex lattice."""
    d = complex.grid.dimension
    vshape = [int(s) + 1 for s in complex.grid.shape]
    lin = (int(code) >> d) % math.prod(vshape)
    anchor = []
    for s in reversed(vshape):
        lin, a = divmod(lin, s)
        anchor.append(a)
    return tuple(reversed(anchor)), int(code) & ((1 << d) - 1)


def cells(complex):
    """(anchor, mask) of each quotient cell, by position."""
    return [decode(complex, code) for code in complex.closure[complex.rows]]


def boundary_chains(complex):
    """del of each quotient cell, by position, as dicts position -> coeff
    over F_p: cell_faces with the faces outside the quotient dropped."""
    named = cells(complex)
    index = {c: j for j, c in enumerate(named)}
    return [{index[f]: s % complex.prime for f, s in cell_faces(c) if f in index}
            for c in named]


def boundary_matrix(complex, dim):
    """Dense boundary matrix C_dim -> C_{dim-1}, rows and columns in
    position order, from cell_faces."""
    rows = np.flatnonzero(complex.dims == dim - 1)
    cols = np.flatnonzero(complex.dims == dim)
    ridx = {int(j): i for i, j in enumerate(rows)}
    chains = boundary_chains(complex)
    mat = np.zeros((len(rows), len(cols)), dtype=np.int64)
    for jc, j in enumerate(cols):
        for f, v in chains[j].items():
            mat[ridx[f], jc] = v
    return mat


def eager_reduction(complex):
    """The column reduction with clearing, every column built as a dict
    from boundary_chains and its pivot found by max() over it, top
    dimension first.  Returns (pivot_of, {dim: representatives}): the
    scalar reference for HomologyBasis._pivot and representatives."""
    from boxdyn.homology import _axpy

    p = complex.prime
    bd = boundary_chains(complex)
    R, V, pivot_of, reps = {}, {}, {}, {}
    for dim in reversed(range(complex.grid.dimension + 1)):
        essential = {}
        for j in np.flatnonzero(complex.dims == dim).tolist():
            if j in pivot_of:
                continue
            rj, vj = dict(bd[j]), {j: 1}
            while rj and max(rj) in pivot_of:
                k = pivot_of[max(rj)]
                coef = rj[max(rj)] * pow(R[k][max(rj)], p - 2, p) % p
                _axpy(rj, R[k], -coef, p)
                _axpy(vj, V[k], -coef, p)
            if rj:
                R[j], V[j] = rj, vj
                pivot_of[max(rj)] = j
            else:
                essential[j] = vj
        reps[dim] = list(essential.values())
    return pivot_of, reps


def apply_chain_map(cm, chain):
    """phi of a whole chain over positions, summed cell by cell."""
    from boxdyn.homology import _axpy

    out = {}
    for j, coef in chain.items():
        _axpy(out, cm[j], coef, cm.complex.prime)
    return out


def eliminate_project(basis, chain, dim):
    """Coordinates of a relative cycle in the dim-homology basis, found by
    eliminating it against the reduced columns and the representatives;
    the reference for HomologyBasis.project, which pairs with cocycles."""
    from boxdyn.errors import BoxdynError
    from boxdyn.homology import _eliminate

    p = basis.complex.prime
    vec = {j: v % p for j, v in chain.items() if v % p}
    reps = basis._V.get(dim, {})

    def column(low):
        k = int(basis._pivot[low])
        if k >= 0:
            # a boundary column: changes nothing in homology
            return basis._column(k), {}
        if low in reps:
            # V_low has unit pivot at low; coords[low] gains coef
            return reps[low], {low: -1}
        raise BoxdynError("chain is not a relative cycle")

    coords = {}
    _eliminate(vec, coords, column, p)
    return np.array([coords.get(j, 0) for j in reps], dtype=np.int64)


def reference_induced_map(cm, basis):
    """The index matrices with phi applied to whole representatives and
    projected by elimination: the reference for induced_homology_map."""
    out = {}
    for dim in range(cm.complex.grid.dimension + 1):
        reps = basis.representatives(dim)
        mat = np.zeros((len(reps),) * 2, dtype=np.int64)
        for j, rep in enumerate(reps):
            mat[:, j] = eliminate_project(basis, apply_chain_map(cm, rep), dim)
        out[dim] = mat
    return out


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


def eventual_restriction(m: np.ndarray, p: int) -> np.ndarray:
    """Matrix of m on its eventual image.

    Finds the smallest k with rank(m^k) = rank(m^{k+1}); the pivot
    columns of m^k are a basis of the eventual image, on which m is
    invertible.  The basis has full column rank, so one elimination of
    [basis | m basis] leaves the restricted matrix beside an identity.
    The reference for shift_invariant_factors, which reads the same
    restriction off the Smith form.
    """
    a = np.array(m, dtype=np.int64) % p
    power = np.eye(a.shape[0], dtype=np.int64)
    pivots = list(range(a.shape[0]))
    while True:
        nxt = (a @ power) % p
        _, nxt_pivots = _row_reduce(nxt, p)
        if len(nxt_pivots) == len(pivots):
            break
        power, pivots = nxt, nxt_pivots
    basis = power[:, pivots]
    r = len(pivots)
    rref, piv = _row_reduce(np.hstack([basis, (a @ basis) % p]), p)
    assert piv == list(range(r)), "eventual image is not invariant"
    return rref[:r, r:]


def brute_betti(complex, max_dim):
    """Relative Betti numbers via dense rank-nullity over F_p.

    betti_k = dim C_k - rank d_k - rank d_{k+1}; the boundary matrices
    come from cell_faces, independent of the code arithmetic and of the
    column-reduction path used by HomologyBasis.
    """
    out = []
    for k in range(max_dim + 1):
        nk = complex.n_cells(k)
        rk = rank_mod_p(boundary_matrix(complex, k), complex.prime)
        rk1 = rank_mod_p(boundary_matrix(complex, k + 1), complex.prime)
        out.append(nk - rk - rk1)
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


def carrier(boxmap, complex, cell):
    """Declared carrier: union of targets over P1 cofaces, within P1."""
    grid = boxmap.grid
    p1 = set(np.flatnonzero(complex._in_p1).tolist())
    out = set()
    for j in cell_coface_boxes(cell, grid.shape):
        lin = grid.linearize(j)
        if lin in p1:
            out.update(int(t) for t in boxmap.targets(lin))
    return np.array(sorted(out & p1), dtype=np.int64)


def charpoly_mod_p(m, p):
    """Characteristic polynomial det(xI - m) over F_p: the product of the
    invariant factors.  Returns ascending coefficients, monic."""
    from boxdyn.conley import _poly_product, invariant_factors_mod_p

    return _poly_product(invariant_factors_mod_p(m, p), p)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260826)


@pytest.fixture(scope="session")
def leslie_coarse():
    """Leslie at depths (9,9), rho = 0.03, p = 5, with every Conley index.

    Shared by acceptance criterion 3 and the regression pin.  Returns the
    analyzed Morse graph and the seconds its computation took.
    """
    t0 = time.perf_counter()
    grid = CubicalGrid(PhaseSpace((0.0, 0.0), (90.0, 70.0)), (9, 9))
    bm = build_boxmap(grid, LeslieOracle((23.5, 23.5)), 0.03)
    cond = condensation(bm)
    mg = morse_graph(cond)
    for q, cid in enumerate(mg.component_ids):
        mg.index_of[q] = conley_index(bm, cond, cid, prime=5)
    return mg, time.perf_counter() - t0

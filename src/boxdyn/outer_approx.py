"""Combinatorial outer approximation of an oracle on a cubical grid.

build_boxmap inflates each box's image enclosure by rho (sup metric, so
rectangles stay rectangles) and records every grid box the result meets.
Because enclosures are rectangles, the target set of a box is always a
contiguous block of indices, so a BoxMap stores per-box index ranges.
BoxMap.adjacency expands those ranges once into a sparse CSR matrix;
that matrix is the only form of the edges the graph algorithms see.
Boxes whose inflated enclosure misses the phase space entirely are
flagged exterior and get no targets: escape is data, not failure.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix

from .errors import GridMismatch
from .grid import CubicalGrid
from .oracles import MapOracle

# edges expanded per step of BoxMap.adjacency; bounds its temporary arrays
_CHUNK_EDGES = 1 << 16


class BoxMap:
    """Directed graph on top-dimensional grid boxes.

    jmin/jmax (shape (n, d)) are the inclusive per-axis target index
    ranges of each box.  Exterior boxes have no targets.
    """

    def __init__(self, grid: CubicalGrid, rho: float, *, jmin, jmax,
                 exterior=None):
        self.grid = grid
        self.rho = float(rho)
        self.jmin = jmin
        self.jmax = jmax
        if exterior is None:
            exterior = np.zeros(grid.box_count, dtype=bool)
        self.exterior = exterior
        self._adjacency = None

    @property
    def n_boxes(self) -> int:
        return self.grid.box_count

    def out_degrees(self) -> np.ndarray:
        deg = np.prod(self.jmax.astype(np.int64) - self.jmin + 1, axis=1)
        deg[self.exterior] = 0
        return deg

    def total_edges(self) -> int:
        return int(self.out_degrees().sum())

    def adjacency(self) -> csr_matrix:
        """n x n CSR matrix with a nonzero at (box, target) for every edge.

        Expanded from the target ranges on first use and cached.  Column
        indices are int32 and sorted within each row, because each
        range is enumerated in ravel order; exterior rows are empty.
        """
        if self._adjacency is None:
            self._adjacency = self._expand()
        return self._adjacency

    def _expand(self) -> csr_matrix:
        n = self.n_boxes
        shape = self.grid.shape
        strides = np.array([int(np.prod(shape[i + 1:])) for i in range(len(shape))],
                           dtype=np.int64)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self.out_degrees(), out=indptr[1:])
        indices = np.empty(int(indptr[-1]), dtype=np.int32)
        # box boundaries of runs of about _CHUNK_EDGES edges each
        cuts = np.searchsorted(indptr, np.arange(0, indptr[-1], _CHUNK_EDGES),
                               side="right") - 1
        for a, b in zip(cuts, np.append(cuts[1:], n)):
            if a == b:
                continue
            # a target rectangle is a set of runs of consecutive indices
            # along the last axis; find each run's start, then fill it
            lo = self.jmin[a:b].astype(np.int64)
            widths = self.jmax[a:b].astype(np.int64) - lo + 1
            widths[self.exterior[a:b]] = 0
            runs = widths[:, :-1].prod(axis=1)
            run_box = np.repeat(np.arange(b - a), runs)
            local = np.arange(run_box.size) - np.repeat(np.cumsum(runs) - runs, runs)
            start = lo[run_box] @ strides
            for axis in reversed(range(len(shape) - 1)):
                w = widths[run_box, axis]
                start += (local % w) * strides[axis]
                local //= w
            length = widths[run_box, -1]
            offset = np.cumsum(length) - length
            indices[indptr[a]:indptr[b]] = (np.arange(indptr[b] - indptr[a])
                                            + np.repeat(start - offset, length))
        data = np.ones(indices.size, dtype=np.float64)
        return csr_matrix((data, indices, indptr), shape=(n, n))

    def targets(self, linear: int) -> np.ndarray:
        """Sorted linearized target indices of a box."""
        adj = self.adjacency()
        linear = int(linear)
        return adj.indices[adj.indptr[linear]:adj.indptr[linear + 1]].astype(np.int64)


def build_boxmap(grid: CubicalGrid, oracle: MapOracle, rho: float) -> BoxMap:
    """rho-inflated combinatorial outer approximation of the oracle."""
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    if oracle.dimension != grid.dimension:
        raise GridMismatch(
            f"oracle dimension {oracle.dimension} != grid dimension {grid.dimension}"
        )
    lo, hi = oracle.image_rects(grid)
    jmin, jmax, nonempty = grid.index_ranges_bulk(lo - rho, hi + rho)
    return BoxMap(grid, rho, jmin=jmin, jmax=jmax, exterior=~nonempty)


def encloses(a: BoxMap, b: BoxMap) -> bool:
    """True iff every target set of b is contained in a's."""
    if a.grid != b.grid:
        raise GridMismatch("box maps live on different grids")
    ok = b.exterior | (
        np.all(a.jmin <= b.jmin, axis=1)
        & np.all(a.jmax >= b.jmax, axis=1)
        & ~a.exterior
    )
    return bool(ok.all())

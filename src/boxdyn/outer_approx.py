"""Combinatorial outer approximation of an oracle on a cubical grid.

build_boxmap inflates each box's image enclosure by rho (sup metric, so
rectangles stay rectangles) and records every grid box the result meets.
Because enclosures are rectangles, the target set of a box is always a
contiguous block of indices, so a BoxMap stores per-box index ranges.
It asks the oracle for the enclosures of one slab of whole first-axis
layers at a time and writes that slab's ranges into the box map's
arrays, so no float array spans the whole grid.
BoxMap.expand turns the ranges of the boxes a caller asks for into CSR
rows; no matrix over the whole grid is built or kept.
Boxes whose inflated enclosure misses the phase space entirely are
flagged exterior and get no targets: escape is data, not failure.
"""

from __future__ import annotations

import numpy as np

from .errors import BoxdynError, GridMismatch
from .grid import CubicalGrid
from .oracles import MapOracle

# edges expanded per step of BoxMap.expand; bounds its temporary arrays
_CHUNK_EDGES = 1 << 16
# build_boxmap asks the oracle for slabs of about this many boxes, whole
# layers along the first axis, so the temporaries of one call stay small
_SLAB_BOXES = 1 << 16


class BoxMap:
    """Directed graph on top-dimensional grid boxes.

    jmin/jmax (shape (n, d)) are the inclusive per-axis target index
    ranges of each box.  Exterior boxes have no targets.
    """

    def __init__(self, grid: CubicalGrid, *, jmin, jmax, exterior):
        self.grid = grid
        self.jmin = jmin
        self.jmax = jmax
        self.exterior = exterior

    @property
    def n_boxes(self) -> int:
        return self.grid.box_count

    def total_edges(self) -> int:
        deg = np.prod(self.jmax.astype(np.int64) - self.jmin + 1, axis=1)
        return int(deg[~self.exterior].sum())

    def expand(self, rows):
        """Targets of the given boxes as CSR arrays (indptr, indices).

        Row k lists the targets of box rows[k].  Indices are int32 and
        sorted within each row, because each range is enumerated in
        ravel order; exterior boxes have empty rows.
        """
        rows = np.asarray(rows, dtype=np.int64).reshape(-1)
        shape = self.grid.shape
        d = len(shape)
        strides = [int(np.prod(shape[i + 1:])) for i in range(d)]
        # per axis: range widths, and the index of each range's first box
        base = np.zeros(rows.size, dtype=np.int32)
        widths = []
        for axis in range(d):
            lo = np.take(self.jmin[:, axis], rows).astype(np.int32)
            hi = np.take(self.jmax[:, axis], rows).astype(np.int32)
            base += lo * strides[axis]
            hi -= lo
            hi += 1
            widths.append(hi)
        widths[0][np.take(self.exterior, rows)] = 0
        runs = np.ones(rows.size, dtype=np.int32)
        for w in widths[:-1]:
            runs *= w
        indptr = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(runs * widths[-1], out=indptr[1:], dtype=np.int64)
        indices = np.empty(int(indptr[-1]), dtype=np.int32)
        # row boundaries of runs of about _CHUNK_EDGES edges each
        cuts = np.searchsorted(indptr, np.arange(0, indptr[-1], _CHUNK_EDGES),
                               side="right") - 1
        for a, b in zip(cuts, np.append(cuts[1:], rows.size)):
            if a == b:
                continue
            # a target rectangle is a set of runs of consecutive indices
            # along the last axis; find each run's start, then fill it
            run_box = np.repeat(np.arange(b - a), runs[a:b])
            start = base[a:b][run_box]
            if d > 1:
                # position of each run in its rectangle, last axis fastest
                local = np.arange(run_box.size, dtype=np.int32)
                local -= (np.cumsum(runs[a:b]) - runs[a:b])[run_box]
                for axis in range(d - 2, 0, -1):
                    w = widths[axis][a:b][run_box]
                    start += (local % w) * strides[axis]
                    local //= w
                local *= strides[0]
                start += local
            # less each run's first position in the chunk, the run's
            # indices are its positions plus this one value
            length = widths[-1][a:b][run_box]
            start -= np.cumsum(length, dtype=np.int32) - length
            fill = indices[indptr[a]:indptr[b]]
            fill[:] = np.repeat(start, length)
            fill += np.arange(fill.size, dtype=np.int32)
        return indptr, indices

    def targets(self, linear: int) -> np.ndarray:
        """Sorted linearized target indices of a box."""
        return self.expand([int(linear)])[1].astype(np.int64)


def _slabs(grid: CubicalGrid):
    """The slabs of the grid as first-axis layer ranges (a, b), in order:
    as many whole layers as fit in _SLAB_BOXES boxes, at least one.  A
    slab's boxes are rows a * layer .. b * layer of the linear order,
    layer being the number of boxes in one first-axis layer."""
    step = max(1, _SLAB_BOXES // (grid.box_count // grid.shape[0]))
    return [(a, min(a + step, grid.shape[0]))
            for a in range(0, grid.shape[0], step)]


def build_boxmap(grid: CubicalGrid, oracle: MapOracle, rho: float) -> BoxMap:
    """rho-inflated combinatorial outer approximation of the oracle,
    filled slab by slab (_slabs).

    An enclosure with a NaN bound is refused, naming its box in the
    grid: index_ranges_bulk would read it as escape.  An infinite bound
    is sound and kept."""
    if not rho >= 0:
        raise ValueError("rho must be nonnegative")
    if oracle.dimension != grid.dimension:
        raise GridMismatch(
            f"oracle dimension {oracle.dimension} != grid dimension {grid.dimension}"
        )
    n, d = grid.box_count, grid.dimension
    layer = n // grid.shape[0]
    jmin = None
    for a, b in _slabs(grid):
        lo, hi = oracle.image_rects(grid, (a, b))
        if np.isnan(lo.min()) or np.isnan(hi.max()):  # min and max keep a NaN
            box = int(np.argmax(np.isnan(lo).any(axis=1)
                                | np.isnan(hi).any(axis=1)))
            raise BoxdynError(f"the enclosure of box "
                              f"{grid.multi_index(a * layer + box)} "
                              "has a NaN bound")
        if jmin is None:
            # allocated once the first slab's temporaries are freed, whose
            # memory the ranges can then take
            jmin = np.empty((n, d), dtype=np.int32)
            jmax = np.empty((n, d), dtype=np.int32)
            nonempty = np.empty(n, dtype=bool)
        rows = slice(a * layer, b * layer)
        grid.index_ranges_bulk(lo, hi, pad=rho,
                               out=(jmin[rows], jmax[rows], nonempty[rows]))
    exterior = np.logical_not(nonempty, out=nonempty)
    return BoxMap(grid, jmin=jmin, jmax=jmax, exterior=exterior)


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

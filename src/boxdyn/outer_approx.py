"""Combinatorial outer approximation of an oracle on a cubical grid.

build_boxmap inflates each box's image enclosure by rho (sup metric, so
rectangles stay rectangles) and records every grid box the result meets.
Because enclosures are rectangles, the target set of a box is always a
contiguous block of indices, so a BoxMap stores per-box index ranges.
It asks the oracle for the enclosures of one slab of whole first-axis
layers at a time and writes that slab's ranges into the box map's
arrays, so no float array spans the whole grid; a coordinate whose
bounds are constant along an axis is searched once per value and
broadcast into the ranges.
BoxMap.expand turns the ranges of the boxes a caller asks for into CSR
rows; no matrix over the whole grid is built or kept.  BoxMap.graph
gives the digraph of a forward-closed set of boxes in their positions.
When the boxes' mean out-degree is high (a data oracle's wide
rectangles), boxes sharing one target rectangle reach it through one
hub node, numbered after the boxes, so the graph grows with the boxes
plus their distinct rectangles, not with the rectangles' areas.  It
also reports, from the ranges, the box graph's edge count and which
boxes target themselves, so no caller reads the hub layout.  Both
methods lay out the ranges once and fill them by one routine.
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
# BoxMap.graph makes hub nodes only for rows of at least this mean
# out-degree: Leslie maps stay below it (3 to 33 up to 2^24 boxes),
# data-oracle maps are far above it (512 at 2^9, 4,002 at 2^12)
_HUB_DEGREE = 64
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

    def _layout(self, rows):
        """Range layout of the given boxes: each box's first target index
        and its per-axis range widths (int32; 0 on the first axis for an
        exterior box), the CSR row pointer of their rectangles, and a
        mask of the boxes that target themselves."""
        exterior = np.take(self.exterior, rows)
        base = np.zeros(rows.size, dtype=np.int32)
        self_loops = ~exterior
        own = self.grid.axis_indices(rows)
        widths = []
        for axis, stride in enumerate(self.grid.strides):
            lo = np.take(self.jmin[:, axis], rows).astype(np.int32, copy=False)
            hi = np.take(self.jmax[:, axis], rows).astype(np.int32, copy=False)
            self_loops &= (lo <= own[axis]) & (own[axis] <= hi)
            base += lo * stride
            hi -= lo
            hi += 1
            widths.append(hi)
        widths[0][exterior] = 0
        return base, widths, _indptr(widths), self_loops

    def _fill(self, base, widths, indptr, position=None):
        """Indices listing row k's rectangle of a layout, in ravel order,
        so each row is sorted; given position, index i reads position[i]
        (once per run: sorted, forward-closed rows hold a run in order)."""
        strides = self.grid.strides
        # a row with a zero width (an exterior row) has no runs
        runs = (widths[-1] > 0).astype(np.int32)
        for w in widths[:-1]:
            runs *= w
        indices = np.empty(int(indptr[-1]), dtype=np.int32)
        # row boundaries of runs of about _CHUNK_EDGES edges each
        cuts = np.searchsorted(indptr, np.arange(0, indptr[-1], _CHUNK_EDGES),
                               side="right") - 1
        for a, b in zip(cuts, np.append(cuts[1:], base.size)):
            if a == b:
                continue
            # a target rectangle is a set of runs of consecutive indices
            # along the last axis; find each run's start and its first
            # slot in the chunk, then fill it
            run_box = np.repeat(np.arange(b - a), runs[a:b])
            start = base[a:b][run_box]
            length = widths[-1][a:b][run_box]
            # position of each run in its rectangle, last axis fastest
            local = np.arange(run_box.size, dtype=np.int32)
            local -= (np.cumsum(runs[a:b]) - runs[a:b])[run_box]
            slot = (indptr[a:b] - indptr[a]).astype(np.int32)[run_box]
            slot += local * length
            for axis in range(len(strides) - 2, 0, -1):
                w = widths[axis][a:b][run_box]
                start += (local % w) * strides[axis]
                local //= w
            start += local * strides[0]
            if position is not None:
                start = position[start]
            # less each run's first slot in the chunk, the run's indices
            # are their slots plus this one value
            start -= slot
            fill = indices[indptr[a]:indptr[b]]
            fill[:] = np.repeat(start, length)
            fill += np.arange(fill.size, dtype=np.int32)
        return indices

    def expand(self, rows):
        """Targets of the given boxes as CSR arrays (indptr, indices).

        Row k lists the targets of box rows[k].  Indices are int32 and
        sorted within each row, because each range is enumerated in
        ravel order; exterior boxes have empty rows.  BoxdynError for a
        row off the grid."""
        rows = self.grid.box_indices(rows)
        base, widths, indptr, _ = self._layout(rows)
        return indptr, self._fill(base, widths, indptr)

    def graph(self, rows):
        """The digraph of the given boxes in positions of rows, as
        (indptr, indices, box_edges, self_loops): CSR arrays whose hub
        nodes are numbered after the rows, the number of edges of the
        box graph on rows, and a mask of the rows that target themselves.

        rows must be a sorted, forward-closed array: every target of a
        row is a row.  When the rows' mean out-degree is at least
        _HUB_DEGREE, rows with the same target rectangle form a group, and
        a group of c rows whose rectangle holds s boxes gets a hub iff
        (c - 1)(s - 1) > 2, that is iff the hub saves nodes plus edges.
        Each row of the group then holds one edge, to the hub, and the
        hub's row lists the rectangle.  So a hub links boxes to boxes
        only, and a box reaches another box iff it does in the box map.
        Below the gate the rows are those of expand(rows), in positions.
        """
        n, m = self.n_boxes, rows.size
        base, widths, indptr, self_loops = self._layout(rows)
        box_edges = int(indptr[-1])
        hubs = 0
        if box_edges >= _HUB_DEGREE * m:
            size = np.diff(indptr)
            # a rectangle is named by its first and last target; rows
            # without targets share one key and never get a hub
            last = base.astype(np.int64)
            for w, stride in zip(widths, self.grid.strides):
                last += (w - 1) * np.int64(stride)
            key = np.where(size > 0, base.astype(np.int64) * n + last, -1)
            _, first, group, count = np.unique(
                key, return_index=True, return_inverse=True,
                return_counts=True)
            hub = (count - 1) * (size[first] - 1) > 2
            hubs = int(hub.sum())
            if hubs:
                rect = first[hub]
                hub_base = base[rect]
                hub_widths = [w[rect] for w in widths]
                # a member's one target is its hub, written as the index
                # n + h past the boxes, which position sends to m + h
                member = hub[group]
                base[member] = n + (np.cumsum(hub) - 1)[group[member]]
                for w in widths:
                    w[member] = 1
                base = np.concatenate((base, hub_base))
                widths = [np.concatenate(w) for w in zip(widths, hub_widths)]
                indptr = _indptr(widths)
        position = None  # on the whole grid every index is its position
        if m < n:
            position = np.empty(n + hubs, dtype=np.int32)
            position[rows] = np.arange(m, dtype=np.int32)
            position[n:] = np.arange(m, m + hubs, dtype=np.int32)
        return (indptr, self._fill(base, widths, indptr, position),
                box_edges, self_loops)

    def targets(self, linear: int) -> np.ndarray:
        """Sorted linearized target indices of a box; BoxdynError for a
        box off the grid."""
        return self.expand([linear])[1].astype(np.int64)


def _indptr(widths):
    """CSR row pointer of rectangles with the given per-axis widths."""
    size = np.ones(widths[0].size, dtype=np.int64)
    for w in widths:
        size *= w
    indptr = np.zeros(size.size + 1, dtype=np.int64)
    np.cumsum(size, out=indptr[1:])
    return indptr


def _slabs(grid: CubicalGrid):
    """The slabs of the grid as first-axis layer ranges (a, b), in order:
    as many whole layers as fit in _SLAB_BOXES boxes, at least one.  A
    slab's boxes are rows a * layer .. b * layer of the linear order,
    layer = grid.strides[0] being the boxes of one first-axis layer."""
    step = max(1, _SLAB_BOXES // grid.strides[0])
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
    layer = grid.strides[0]
    jmin = None
    for a, b in _slabs(grid):
        lo, hi = oracle.image_rects(grid, (a, b))
        shape = (b - a,) + grid.shape[1:]
        # min and max keep a NaN
        if any(np.isnan(np.min(x)) for x in (*lo, *hi)):
            nan = np.zeros(shape, dtype=bool)
            for x in (*lo, *hi):
                nan |= np.isnan(x)
            box = int(np.argmax(nan))
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
        grid.index_ranges_bulk(lo, hi, pad=rho, out=(
            jmin[rows].reshape(shape + (d,)), jmax[rows].reshape(shape + (d,)),
            nonempty[rows].reshape(shape)))
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

"""Uniform cubical discretization of a rectangular phase space.

A grid subdivides each axis of the phase-space rectangle into 2**depth
equal intervals.  Boxes are addressed by integer multi-indices (tuples),
or equivalently by a single linearized index in C (lexicographic) order.
CubicalGrid alone works out that numbering, and the dyadic parents and
children of boxes between nested grids.
All intersection predicates treat boxes as closed sets; points that fall
exactly on a shared face belong to the lexicographically smallest box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (BoxdynError, DimensionMismatch, GridMismatch,
                     PointOutsideDomain)


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle, possibly degenerate (lower == upper)."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape or np.any(lo > hi):
            raise ValueError(f"invalid rectangle bounds {lo} .. {hi}")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dimension(self) -> int:
        return self.lower.size

    def padded(self, rho: float) -> "Rect":
        """Inflate every side by rho (sup-metric ball)."""
        return Rect(self.lower - rho, self.upper + rho)

    def intersects(self, other: "Rect") -> bool:
        return bool(
            np.all(self.lower <= other.upper) and np.all(other.lower <= self.upper)
        )


class PhaseSpace:
    """Rectangular phase space X = [lower_0, upper_0] x ... x [lower_{d-1}, upper_{d-1}]."""

    def __init__(self, lower, upper):
        self.lower = np.atleast_1d(np.asarray(lower, dtype=float))
        self.upper = np.atleast_1d(np.asarray(upper, dtype=float))
        if self.lower.shape != self.upper.shape:
            raise ValueError("lower/upper dimension mismatch")
        if not (np.all(self.lower < self.upper)
                and np.isfinite([self.lower, self.upper]).all()):
            raise ValueError("phase space requires finite lower[i] < upper[i]")

    @property
    def dimension(self) -> int:
        return self.lower.size

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lower) and np.all(x <= self.upper))

    def __eq__(self, other):
        return (
            isinstance(other, PhaseSpace)
            and np.array_equal(self.lower, other.lower)
            and np.array_equal(self.upper, other.upper)
        )

    def __repr__(self):
        parts = "x".join(f"[{a:g},{b:g}]" for a, b in zip(self.lower, self.upper))
        return f"PhaseSpace({parts})"


class CubicalGrid:
    """Dyadic uniform subdivision of a PhaseSpace.

    subdivisions[i] is the dyadic depth along axis i, so the grid has
    2**subdivisions[i] boxes along that axis.  Construction precomputes
    the face coordinates of every axis; all queries reduce to binary
    searches against those arrays, which keeps the closed-box boundary
    semantics bit-for-bit identical between scalar and bulk paths.
    """

    def __init__(self, space: PhaseSpace, subdivisions):
        self.space = space
        self.subdivisions = tuple(int(s) for s in np.atleast_1d(subdivisions))
        if len(self.subdivisions) != space.dimension:
            raise ValueError("one subdivision depth per axis required")
        if any(s < 0 for s in self.subdivisions):
            raise ValueError("subdivision depths must be nonnegative")
        self.shape = tuple(1 << s for s in self.subdivisions)
        # axis i's index starts at bit _shifts[i] of a linear index
        self._shifts = tuple(sum(self.subdivisions[i + 1:])
                             for i in range(len(self.subdivisions)))
        self.strides = tuple(1 << s for s in self._shifts)
        self.widths = (space.upper - space.lower) / np.asarray(self.shape, dtype=float)
        # faces[i] has shape (n_i + 1,) with exact domain endpoints
        self.faces = [
            np.linspace(space.lower[i], space.upper[i], self.shape[i] + 1)
            for i in range(space.dimension)
        ]

    @property
    def dimension(self) -> int:
        return self.space.dimension

    @property
    def box_count(self) -> int:
        return int(np.prod(self.shape))

    def linearize(self, index) -> int:
        return int(np.ravel_multi_index(tuple(index), self.shape))

    def multi_index(self, linear: int):
        return tuple(int(v) for v in np.unravel_index(int(linear), self.shape))

    def box_indices(self, boxes) -> np.ndarray:
        """Linear box indices as an int64 array; BoxdynError if one is
        not an integer (a float or a bool is not cast) or lies outside
        [0, box_count)."""
        if not isinstance(boxes, np.ndarray):
            boxes = list(boxes)
            # numpy reads [1, True] as integers, so bools are found here
            if any(isinstance(b, (bool, np.bool_)) for b in boxes):
                raise BoxdynError(f"box indices {boxes} hold a bool")
        boxes = np.asarray(boxes).reshape(-1)
        if boxes.size and boxes.dtype.kind not in "iu":
            raise BoxdynError(f"box indices of type {boxes.dtype} are not "
                              "integers")
        boxes = boxes.astype(np.int64, copy=False)
        if boxes.size and not 0 <= boxes.min() <= boxes.max() < self.box_count:
            bad = boxes[(boxes < 0) | (boxes >= self.box_count)][0]
            raise BoxdynError(f"box index {bad} is outside the grid of "
                              f"{self.box_count} boxes")
        return boxes

    def axis_indices(self, boxes):
        """Per-axis indices of linear box indices, as np.unravel_index
        gives them, by one shift and one mask per axis (exact: every
        axis has 2**depth boxes)."""
        return tuple((np.asarray(boxes) >> s) & (n - 1)
                     for s, n in zip(self._shifts, self.shape))

    def refinement(self, coarse: "CubicalGrid") -> list:
        """Depths by which this grid subdivides the coarse one per axis;
        GridMismatch unless every coarse box is a union of its boxes."""
        depths = [f - c for f, c in zip(self.subdivisions, coarse.subdivisions)]
        if self.space != coarse.space:
            raise GridMismatch(
                "fine and coarse grids cover different phase spaces")
        if min(depths) < 0:
            raise GridMismatch(
                "fine grid must subdivide at least as deeply as the coarse "
                f"grid on every axis (got {self.subdivisions} vs "
                f"{coarse.subdivisions})")
        return depths

    def parents(self, boxes, coarse: "CubicalGrid") -> np.ndarray:
        """The coarse box holding each box; GridMismatch unless they nest."""
        return sum((j >> r) << s for j, r, s in zip(
            self.axis_indices(boxes), self.refinement(coarse), coarse._shifts))

    def children(self, boxes, fine: "CubicalGrid") -> np.ndarray:
        """Sorted boxes of the fine grid inside the given boxes of this
        grid; GridMismatch unless the grids nest."""
        base = np.zeros(np.size(boxes), dtype=np.int64)
        offsets = np.zeros(1, dtype=np.int64)
        for j, r, stride in zip(self.axis_indices(boxes),
                                fine.refinement(self), fine.strides):
            base += (j << r) * stride
            offsets = np.add.outer(offsets, stride * np.arange(1 << r)).ravel()
        return np.sort((base[:, None] + offsets).ravel())

    def box_containing(self, point):
        """Multi-index of the box containing a point of X.

        Points on shared faces resolve to the lexicographically smallest
        index.  Raises PointOutsideDomain for points outside X.
        """
        x = np.atleast_1d(np.asarray(point, dtype=float))
        if x.size != self.dimension or not self.space.contains(x):
            raise PointOutsideDomain(f"point {x} outside {self.space}")
        idx = []
        for i in range(self.dimension):
            # 'left' puts boundary points into the smaller neighbor
            j = int(np.searchsorted(self.faces[i], x[i], side="left")) - 1
            idx.append(min(max(j, 0), self.shape[i] - 1))
        return tuple(idx)

    def index_ranges_bulk(self, rect_lo, rect_hi, pad: float = 0.0,
                          out=None):
        """Inclusive per-axis index ranges of the boxes meeting each
        rectangle, inflated by pad on every side.

        rect_lo[i]/rect_hi[i] are the bounds along axis i, arrays that
        broadcast to the rectangles' shape S: out's when given, else the
        bounds' common shape.  Each axis is searched at its bounds' own
        shape, so a bound constant along some axes of S (length 1 there)
        is searched once per value, and the result is broadcast into
        place.  Closed-box semantics: a rectangle touching a face meets
        the boxes on both sides.  Returns (jmin, jmax, nonempty) with
        jmin/jmax int32 of shape S + (d,) clamped to the grid and a
        boolean mask of shape S of rectangles that meet X at all;
        out = (jmin, jmax, nonempty) fills given arrays instead.  Only
        the interior faces are searched: jmin counts the interior faces
        below its key and jmax those at or below its key, so both lie in
        [0, n - 1] with no clamping, and a rectangle meets X iff its low
        key is at most the last face and its high key at least the
        first.  The pad is applied one axis at a time, so no padded copy
        of the inputs is made.  DimensionMismatch unless there are d
        bounds of each kind.
        """
        d = self.dimension
        if len(rect_lo) != d or len(rect_hi) != d:
            raise DimensionMismatch(
                f"{len(rect_lo)} lower and {len(rect_hi)} upper bounds for "
                f"a grid of dimension {d}")
        if out is None:
            shape = np.broadcast_shapes(*map(np.shape, (*rect_lo, *rect_hi)))
            out = (np.empty(shape + (d,), dtype=np.int32),
                   np.empty(shape + (d,), dtype=np.int32),
                   np.empty(shape, dtype=bool))
        jmin, jmax, nonempty = out
        nonempty[...] = True
        for i in range(d):
            faces = self.faces[i]
            key = rect_lo[i] - pad
            nonempty &= key <= faces[-1]
            jmin[..., i] = np.searchsorted(faces[1:-1], key, side="left")
            key = rect_hi[i] + pad
            nonempty &= key >= faces[0]
            jmax[..., i] = np.searchsorted(faces[1:-1], key, side="right")
        return jmin, jmax, nonempty

    def __eq__(self, other):
        return (
            isinstance(other, CubicalGrid)
            and self.space == other.space
            and self.subdivisions == other.subdivisions
        )

    def __repr__(self):
        return f"CubicalGrid({self.space!r}, depths={self.subdivisions})"


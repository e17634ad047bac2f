"""Sources of rigorous image enclosures for an evaluable map G.

Every oracle evaluates G at points, encloses the image of each box of a
product grid in a rectangle guaranteed to contain it, and reports an
explicit upper bound on the Lipschitz constant of G.  Each of these is
one method: eval_batch is the only pointwise formula (eval checks one
point and calls it) and enclosures(faces) the only enclosure formula
(image_rect calls it on a one-box grid, and image_rects on a slab of
whole first-axis layers of a CubicalGrid; build_boxmap asks for one slab
at a time, so no enclosure of the whole grid is held).  An enclosure is
one array of bounds per coordinate, each broadcastable to the grid's box
shape: a coordinate constant along an axis may give that axis length 1,
and is then computed and searched once per value.  The default
enclosure is the hull of the corner images padded by L * (half box
diameter): every point of the box is within half a diameter of some
corner, so the padded hull covers the true image.  The Leslie map's
closed form reads each grid vertex once and shares it between the boxes
that meet it, and its second coordinate, 0.7*x1, once per first-axis
layer.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from functools import reduce

import numpy as np

from .errors import DimensionMismatch
from .grid import CubicalGrid, Rect

#: Tag of the enclosure formulas, hashed into the box-map cache key.
#: Change it whenever an enclosure changes.  "v1": every bound is
#: rounded to nearest, none outward.
ENCLOSURE_SEMANTICS = "v1"

class MapOracle(ABC):
    """Evaluable map with rectangle image enclosures and a Lipschitz bound."""

    @property
    @abstractmethod
    def dimension(self) -> int: ...

    @abstractmethod
    def lipschitz_upper_bound(self) -> float: ...

    @abstractmethod
    def eval_batch(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at many points, shape (n, d) -> (n, d)."""

    def eval(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.size != self.dimension:
            raise DimensionMismatch(
                f"point has dimension {x.size}, oracle expects {self.dimension}"
            )
        return self.eval_batch(x[None])[0]

    def enclosures(self, faces) -> tuple[np.ndarray, np.ndarray]:
        """Image enclosures of every box of the product grid of faces.

        faces[i] holds the increasing face coordinates along axis i.
        Returns (lo, hi), each a sequence of d arrays: lo[i] and hi[i]
        bound coordinate i and broadcast to the box shape (len(f) - 1
        for f in faces), boxes in C order.  The default is the corner
        hull padded by L * (half box diameter), at the full box shape;
        each grid vertex is evaluated once and shared by the boxes that
        meet it.
        """
        d = len(faces)
        shape = tuple(len(f) for f in faces)
        vals = self.eval_batch(_product(faces)).reshape(shape + (d,))
        lo = hi = None
        for corner in np.ndindex(*([2] * d)):
            v = vals[tuple(slice(1, None) if b else slice(None, -1)
                           for b in corner)]
            lo = v if lo is None else np.minimum(lo, v)
            hi = v if hi is None else np.maximum(hi, v)
        pad = self.lipschitz_upper_bound() * _half_diameters(faces)[:, None]
        return (_coordinates(lo.reshape(-1, d) - pad, lo.shape[:-1]),
                _coordinates(hi.reshape(-1, d) + pad, hi.shape[:-1]))

    def image_rect(self, box: Rect) -> Rect:
        """Rectangle containing the image of the closed box."""
        lo, hi = self.enclosures(
            [np.array([a, b]) for a, b in zip(box.lower, box.upper)])
        return Rect([np.ravel(x)[0] for x in lo], [np.ravel(x)[0] for x in hi])

    def image_rects(self, grid: CubicalGrid, layers):
        """Image enclosures of the boxes of first-axis layers a .. b - 1
        of the grid, layers = (a, b), as enclosures gives them: per
        coordinate, broadcastable to the slab's box shape
        (b - a,) + grid.shape[1:]."""
        a, b = layers
        return self.enclosures([grid.faces[0][a:b + 1]] + list(grid.faces[1:]))


def _product(axes) -> np.ndarray:
    """Points of the product of 1-D coordinate arrays, shape (n, d), C order."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, len(axes))


def _half_diameters(faces) -> np.ndarray:
    """Half the Euclidean diameter of each box of the product grid, shape (n,)."""
    return 0.5 * np.linalg.norm(_product([np.diff(f) for f in faces]), axis=1)


def _coordinates(bounds: np.ndarray, shape) -> tuple:
    """The columns of (n, d) bounds of the boxes of a grid, each viewed
    at the box shape."""
    return tuple(bounds[:, i].reshape(shape) for i in range(bounds.shape[1]))


class LeslieOracle(MapOracle):
    """Two-species nonlinear population map.

    f(x) = ((theta1*x1 + theta2*x2) * exp(-0.1*(x1+x2)), 0.7*x1).

    The stored Lipschitz bound 34.0 is a verified upper bound for the
    spectral norm of the Jacobian over [0,90] x [0,70] (the maximum,
    attained at the origin, is about 33.24 for theta = (23.5, 23.5)).
    Box enclosures do not use it: the second coordinate is linear and,
    when theta1 == theta2, the first coordinate depends on the box only
    through s = x1 + x2 via the unimodal g(s) = theta*s*exp(-0.1*s), so
    the exact minimal image rectangle is available in closed form.  For
    theta1 != theta2 a rigorous interval product is used instead.  Any
    Lipschitz-style padding (global or per-box) is strictly wider and
    merges distinct recurrent sets at practical grid depths.
    """

    LIPSCHITZ_BOUND = 34.0

    def __init__(self, theta=(23.5, 23.5)):
        if len(theta) != 2:
            raise ValueError(f"theta needs two values, got {tuple(theta)}")
        self.theta = (float(theta[0]), float(theta[1]))
        if not all(map(math.isfinite, self.theta)):
            raise ValueError(f"theta must be finite, got {self.theta}")

    @property
    def dimension(self) -> int:
        return 2

    def lipschitz_upper_bound(self) -> float:
        return self.LIPSCHITZ_BOUND

    def eval_batch(self, points):
        p = np.asarray(points, dtype=float)
        t1, t2 = self.theta
        first = (t1 * p[:, 0] + t2 * p[:, 1]) * np.exp(-0.1 * (p[:, 0] + p[:, 1]))
        return np.column_stack([first, 0.7 * p[:, 0]])

    def enclosures(self, faces):
        # f1 depends on x1 + x2, so every bound is read from the sums s at
        # the grid vertices; a box's low corner is vertex [i, j] and its
        # high corner [i + 1, j + 1].  f2 = 0.7*x1 is one value per
        # first-axis layer, so its bounds have shape (layers, 1)
        f0, f1 = faces
        t1, t2 = self.theta
        s = f0[:, None] + f1
        if t1 == t2:
            # f1 = g(s) = t1*s*exp(-0.1*s), unimodal with peak at s = 10
            g = t1 * s * np.exp(-0.1 * s)
            lo = np.minimum(g[:-1, :-1], g[1:, 1:])
            hi = np.maximum(g[:-1, :-1], g[1:, 1:])
            peak = (s[:-1, :-1] <= 10.0) & (10.0 <= s[1:, 1:])
            top = t1 * 10.0 * math.exp(-1.0)
            hi[peak] = max(top, 0.0)
            if t1 < 0:
                lo[peak] = top
        else:
            # interval product: w = t1*x1 + t2*x2 bounded term by term,
            # times exp(-0.1*s) between its values at the two corners
            a1, b1 = min(t1, 0.0), max(t1, 0.0)
            a2, b2 = min(t2, 0.0), max(t2, 0.0)
            w_lo = ((a1 * f0[1:] + b1 * f0[:-1])[:, None]
                    + a2 * f1[1:] + b2 * f1[:-1])
            w_hi = ((a1 * f0[:-1] + b1 * f0[1:])[:, None]
                    + a2 * f1[:-1] + b2 * f1[1:])
            e = np.exp(-0.1 * s)
            e_lo, e_hi = e[1:, 1:], e[:-1, :-1]
            prods = (w_lo * e_lo, w_lo * e_hi, w_hi * e_lo, w_hi * e_hi)
            lo = reduce(np.minimum, prods)
            hi = reduce(np.maximum, prods)
        return ((lo, (0.7 * f0[:-1])[:, None]),
                (hi, (0.7 * f0[1:])[:, None]))


class PiecewiseExample1D(MapOracle):
    """One-dimensional piecewise-linear family.

    f(x) = 0 for x <= 1/2, 2x - 1 on [1/2, (theta+1)/2], theta afterwards.
    Nondecreasing, so box images are computed exactly from the endpoints;
    the Lipschitz constant is 2 (the middle branch).
    """

    def __init__(self, theta: float):
        if not 0 <= theta < math.inf:
            raise ValueError("theta must be finite and nonnegative")
        self.theta = float(theta)

    @property
    def dimension(self) -> int:
        return 1

    def lipschitz_upper_bound(self) -> float:
        return 2.0

    def eval_batch(self, points):
        p = np.asarray(points, dtype=float).reshape(-1)
        return np.clip(2.0 * p - 1.0, 0.0, self.theta).reshape(-1, 1)

    def enclosures(self, faces):
        # exact: f is continuous and nondecreasing
        vals = self.eval_batch(faces[0])[:, 0]
        return (vals[:-1],), (vals[1:],)


class MlpOracle(MapOracle):
    """Fully-connected feedforward network with rectified-linear activations.

    layers is a list of (weight, bias) pairs applied in order; ReLU is
    applied between layers but not after the last one.  The Lipschitz
    bound is the product over layers of min(||W||_F, sqrt(||W||_1 *
    ||W||_inf)); ReLU is 1-Lipschitz, so the product bounds the whole
    network.
    """

    def __init__(self, layers):
        self.layers = []
        prev = None
        for k, (w, b) in enumerate(layers):
            w = np.asarray(w, dtype=float)
            b = np.asarray(b, dtype=float).reshape(-1)
            if w.ndim != 2:
                raise DimensionMismatch(f"layer {k}: weight must be a matrix")
            if b.size != w.shape[0]:
                raise DimensionMismatch(
                    f"layer {k}: bias length {b.size} != output size {w.shape[0]}"
                )
            if prev is not None and w.shape[1] != prev:
                raise DimensionMismatch(
                    f"layer {k}: input size {w.shape[1]} != previous output {prev}"
                )
            prev = w.shape[0]
            self.layers.append((w, b))
        if not self.layers:
            raise DimensionMismatch("network needs at least one layer")
        if self.layers[-1][0].shape[0] != self.layers[0][0].shape[1]:
            raise DimensionMismatch("network must map R^d to R^d")

    @property
    def dimension(self) -> int:
        return self.layers[0][0].shape[1]

    @staticmethod
    def _layer_bound(w: np.ndarray) -> float:
        fro = float(np.linalg.norm(w, "fro"))
        n1 = float(np.abs(w).sum(axis=0).max())
        ninf = float(np.abs(w).sum(axis=1).max())
        return min(fro, math.sqrt(n1 * ninf))

    def lipschitz_upper_bound(self) -> float:
        out = 1.0
        for w, _ in self.layers:
            out *= self._layer_bound(w)
        return out

    def eval_batch(self, points):
        a = np.asarray(points, dtype=float)
        for k, (w, b) in enumerate(self.layers):
            a = a @ w.T + b
            if k < len(self.layers) - 1:
                np.maximum(a, 0.0, out=a)
        return a


class LipschitzDataOracle(MapOracle):
    """Enclosures valid for every L-Lipschitz interpolant of sample pairs.

    For a box with center c and half-diameter r, the nearest sample
    (x*, y*) gives the enclosure y* +/- L * (||c - x*|| + r): any
    L-Lipschitz f with f(x*) = y* maps the box inside it.  Pointwise
    evaluation is undefined (the data does not determine a function).
    """

    def __init__(self, xs, ys, lipschitz: float):
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        ys = np.atleast_2d(np.asarray(ys, dtype=float))
        if xs.shape != ys.shape or xs.shape[0] == 0:
            raise DimensionMismatch("samples must be matching nonempty (n, d) arrays")
        if not 0 <= lipschitz < math.inf:
            raise ValueError("Lipschitz bound must be finite and nonnegative")
        self.xs = xs
        self.ys = ys
        self.L = float(lipschitz)
        # only data runs need scipy.spatial, so only they pay its import
        from scipy.spatial import cKDTree
        self._tree = cKDTree(xs)

    @property
    def dimension(self) -> int:
        return self.xs.shape[1]

    def lipschitz_upper_bound(self) -> float:
        return self.L

    def eval_batch(self, points):
        raise NotImplementedError(
            "a data oracle has no pointwise evaluation; use image_rect"
        )

    def enclosures(self, faces):
        centers = _product([0.5 * (f[:-1] + f[1:]) for f in faces])
        dist, idx = self._tree.query(centers)
        rad = (self.L * (dist + _half_diameters(faces)))[:, None]
        y = self.ys[idx]
        shape = tuple(len(f) - 1 for f in faces)
        return _coordinates(y - rad, shape), _coordinates(y + rad, shape)


class CallableOracle(MapOracle):
    """Wrap an arbitrary function with a user-supplied Lipschitz bound."""

    def __init__(self, func, lipschitz: float, dimension: int):
        self._func = func
        self._lip = float(lipschitz)
        self._dim = int(dimension)

    @property
    def dimension(self) -> int:
        return self._dim

    def lipschitz_upper_bound(self) -> float:
        return self._lip

    def eval_batch(self, points):
        return np.array([np.atleast_1d(np.asarray(self._func(p), dtype=float))
                         for p in np.asarray(points, dtype=float)])

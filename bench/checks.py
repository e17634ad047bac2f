"""Correctness checks computed apart from boxdyn's own algorithms.

Each check returns a list of failure messages; an empty list is a pass.
Graph facts come from scipy's strongly connected components and
breadth-first search on an edge list expanded here from the box map's
target ranges, enclosures of the data oracle are recomputed by brute
force, and the Leslie labels are tied to orbits of the true map.
None of these reuse boxdyn's SCC, reachability, projection or
enclosure code.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components

from workloads import (LESLIE_LOWER, LESLIE_UPPER, leslie_fixed_point,
                       leslie_map)


# ---------------------------------------------------------------------------
# graphs


def edge_matrix(jmin, jmax, exterior, shape) -> csr_matrix:
    """Adjacency of a rectangle-form box map, expanded box by box range.

    jmin/jmax are inclusive per-axis target ranges of shape (n, d) in C
    order; exterior boxes have no targets.
    """
    jmin = np.asarray(jmin, dtype=np.int64)
    jmax = np.asarray(jmax, dtype=np.int64)
    n, d = jmin.shape
    widths = jmax - jmin + 1
    widths[np.asarray(exterior, dtype=bool)] = 0
    degree = widths.prod(axis=1)
    src = np.repeat(np.arange(n, dtype=np.int64), degree)
    start = np.cumsum(degree) - degree
    local = np.arange(src.size, dtype=np.int64) - start[src]
    tgt = np.zeros(src.size, dtype=np.int64)
    for axis in range(d - 1, -1, -1):
        w = widths[src, axis]
        tgt += (jmin[src, axis] + local % w) * int(np.prod(shape[axis + 1:]))
        local //= w
    data = np.ones(src.size, dtype=np.int8)
    return csr_matrix((data, (src, tgt)), shape=(n, n))


def recurrent_components(adj: csr_matrix):
    """Sorted member arrays of the SCCs that contain an edge."""
    _, label = connected_components(adj, directed=True, connection="strong")
    size = np.bincount(label)
    loop = np.zeros(size.size, dtype=bool)
    diag = adj.diagonal() != 0
    loop[label[diag]] = True
    keep = (size >= 2) | loop
    order = np.argsort(label, kind="stable")
    bounds = np.cumsum(size)[:-1]
    groups = np.split(order, bounds)
    return [np.sort(g) for g, k in zip(groups, keep) if k]


def reachable(adj: csr_matrix, seed: int) -> np.ndarray:
    """Boolean mask of boxes reachable from seed, seed included."""
    mask = np.zeros(adj.shape[0], dtype=bool)
    mask[breadth_first_order(adj, seed, directed=True,
                             return_predecessors=False)] = True
    return mask


def check_morse_graph(adj: csr_matrix, regions, order, tag: str):
    """Regions must be exactly the recurrent SCCs and order exactly the
    reachability between them.  Returns (failures, downset masks)."""
    fails = []
    want = recurrent_components(adj)
    got = sorted((np.sort(np.asarray(r, dtype=np.int64)) for r in regions),
                 key=lambda r: int(r[0]) if r.size else -1)
    want.sort(key=lambda r: int(r[0]))
    if len(got) != len(want):
        fails.append(f"{tag}: {len(got)} Morse nodes, {len(want)} recurrent "
                     "components")
    elif not all(np.array_equal(a, b) for a, b in zip(got, want)):
        fails.append(f"{tag}: node regions differ from the recurrent "
                     "components")
    downsets = [reachable(adj, int(r[0])) for r in regions if len(r)]
    if len(downsets) != len(regions):
        fails.append(f"{tag}: a Morse node has an empty region")
        return fails, downsets
    want_order = {(a, b) for b in range(len(regions))
                  for a in range(len(regions))
                  if a != b and downsets[b][regions[a]].any()}
    if set(order) != want_order:
        fails.append(f"{tag}: Morse order differs from reachability "
                     f"(extra {sorted(set(order) - want_order)}, "
                     f"missing {sorted(want_order - set(order))})")
    return fails, downsets


def box_of(point, lower, upper, shape) -> int:
    """Linear index of the grid box holding an interior point."""
    lower, upper = np.asarray(lower), np.asarray(upper)
    frac = (np.asarray(point, dtype=float) - lower) / (upper - lower)
    idx = np.minimum((frac * np.asarray(shape)).astype(np.int64),
                     np.asarray(shape) - 1)
    return int(np.ravel_multi_index(tuple(idx), shape))


def node_of_box(regions, n_boxes: int) -> np.ndarray:
    """Node holding each box: -1 for none, -2 for more than one."""
    out = np.full(n_boxes, -1, dtype=np.int64)
    for q, region in enumerate(regions):
        region = np.asarray(region, dtype=np.int64)
        out[region] = np.where(out[region] == -1, q, -2)
    return out


def _node(node_of, box: int):
    q = int(node_of[box])
    return q if q >= 0 else None


# ---------------------------------------------------------------------------
# Leslie: labels from properties of the true map


ORBIT_STARTS = 8


def orbit_tails(seed: int, steps: int = 3000, tail: int = 300):
    """Last points of float orbits of the true map from seeded starts."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(ORBIT_STARTS):
        x = np.array([rng.uniform(1.0, 80.0), rng.uniform(1.0, 60.0)])
        points = []
        for k in range(steps):
            x = leslie_map(x)
            if k >= steps - tail:
                points.append(x)
        out.append(np.array(points))
    return out


def visits_three_clusters(tail) -> bool:
    """Whether the tail cycles through three clusters with disjoint
    bounding boxes."""
    groups = [tail[k::3] for k in range(3)]
    lo = [g.min(axis=0) for g in groups]
    hi = [g.max(axis=0) for g in groups]
    return all(np.any(hi[a] < lo[b]) or np.any(hi[b] < lo[a])
               for a in range(3) for b in range(a + 1, 3))


def check_leslie_labels(regions, order, labels, shape, seed: int):
    """Facts about the true Leslie map that a labelled Morse graph must
    show (labels: per node, a tuple of label strings)."""
    fails = []
    n = len(regions)
    node_of = node_of_box(regions, int(np.prod(shape)))
    minimal = [q for q in range(n) if not any((p, q) in order
                                              for p in range(n) if p != q)]

    # Every tail must lie in one node.  Most starts settle on the period-3
    # attractor, whose node must be the unique minimal one; about one in
    # seven settles on a second attracting set around the repelling fixed
    # point, inside a node above it.
    cycle_homes = set()
    for tail in orbit_tails(seed):
        homes = {_node(node_of, box_of(x, LESLIE_LOWER, LESLIE_UPPER, shape))
                 for x in tail}
        if len(homes) != 1 or None in homes:
            fails.append("orbit tail: not inside one Morse node")
        elif visits_three_clusters(tail):
            cycle_homes |= homes
    q_att = cycle_homes.pop() if len(cycle_homes) == 1 else None
    if q_att is None or minimal != [q_att]:
        fails.append("period-3 orbit tails: not inside the unique minimal "
                     "node")
    elif labels[q_att] != ("x^3 - 1", "0", "0"):
        fails.append("period-3 orbit tails: minimal node not labelled "
                     "(x^3 - 1, 0, 0)")

    q_origin = _node(node_of, 0)
    if q_origin is None or any(s != "0" for s in labels[q_origin]):
        fails.append("origin: not in one all-zero node")

    # the repelling fixed point is an isolated invariant set; at depths
    # (7, 7) its node also holds the period-3 saddle
    q_fix = _node(node_of, box_of(leslie_fixed_point(), LESLIE_LOWER,
                                  LESLIE_UPPER, shape))
    nonzero = {q for q in range(n) if any(s != "0" for s in labels[q])}
    if q_fix is None or q_fix not in nonzero:
        fails.append("fixed point: not in one node with a nonzero index")
    elif q_att is not None and (q_att, q_fix) not in order:
        fails.append("fixed point: its node is not above the attractor")
    if nonzero != {q_att, q_fix}:
        fails.append(f"nonzero index on nodes {sorted(nonzero)}, want only "
                     "the attractor's and the fixed point's")
    return fails


# ---------------------------------------------------------------------------
# nu: projection of a fine Morse graph onto a coarse one


def check_nu(fine_regions, fine_order, fine_shape, coarse_downsets,
             coarse_order, coarse_shape, assignment):
    """The assignment must put each coarsened fine region inside the
    tile of its coarse node, and be total, surjective and order
    preserving.  coarse_downsets are boolean masks recomputed apart from
    the program."""
    fails = []
    shifts = np.log2(np.asarray(fine_shape) // np.asarray(coarse_shape))
    shifts = shifts.astype(np.int64)
    m = len(coarse_downsets)
    tiles = []
    for c in range(m):
        tile = coarse_downsets[c].copy()
        for c2 in range(m):
            if (c2, c) in coarse_order:
                tile &= ~coarse_downsets[c2]
        tiles.append(tile)
    for q, region in enumerate(fine_regions):
        if q not in assignment:
            fails.append(f"nu: fine node {q} has no image")
            continue
        mi = np.stack(np.unravel_index(np.asarray(region), fine_shape))
        coarse = np.ravel_multi_index(tuple(mi >> shifts[:, None]),
                                      coarse_shape)
        if not tiles[assignment[q]][coarse].all():
            fails.append(f"nu: fine node {q} not inside the tile of coarse "
                         f"node {assignment[q]}")
    if set(assignment.values()) != set(range(m)):
        fails.append("nu: not surjective")
    for a, b in fine_order:
        if a in assignment and b in assignment:
            ca, cb = assignment[a], assignment[b]
            if ca != cb and (ca, cb) not in coarse_order:
                fails.append(f"nu: order {a} < {b} not preserved")
    return fails


# ---------------------------------------------------------------------------
# data oracle: enclosures recomputed by brute force


def data_enclosures(xs, ys, lipschitz, rho, lower, upper, shape):
    """Inclusive index ranges and an exterior flag for every box, from
    the nearest sample found by brute force."""
    lower, upper = np.asarray(lower, float), np.asarray(upper, float)
    shape = np.asarray(shape)
    width = (upper - lower) / shape
    axes = [lower[i] + (np.arange(shape[i]) + 0.5) * width[i]
            for i in range(len(shape))]
    centers = np.stack(np.meshgrid(*axes, indexing="ij"),
                       axis=-1).reshape(-1, len(shape))
    dist = np.sqrt(((centers[:, None, :] - xs[None, :, :]) ** 2).sum(axis=2))
    near = dist.argmin(axis=1)
    rad = lipschitz * (dist[np.arange(len(centers)), near]
                       + 0.5 * float(np.linalg.norm(width))) + rho
    lo = ys[near] - rad[:, None]
    hi = ys[near] + rad[:, None]
    jmin = np.ceil((lo - lower) / width).astype(np.int64) - 1
    jmax = np.floor((hi - lower) / width).astype(np.int64)
    exterior = np.any((jmax < 0) | (jmin > shape - 1), axis=1)
    return np.clip(jmin, 0, shape - 1), np.clip(jmax, 0, shape - 1), exterior


def check_data(xs, ys, lipschitz, rho, lower, upper, shape, boxmap,
               regions, order, labels):
    """boxmap: (jmin, jmax, exterior) written by the program; regions,
    order and labels: its Morse graph as read back from disk."""
    fails = []
    jmin, jmax, exterior = (np.asarray(a) for a in boxmap)
    want_min, want_max, want_ext = data_enclosures(
        xs, ys, lipschitz, rho, lower, upper, shape)
    inside = (~want_ext[:, None] & (jmin <= want_min)
              & (jmax >= want_max) & ~exterior[:, None]) | want_ext[:, None]
    if not inside.all():
        fails.append(f"data: {int((~inside.all(axis=1)).sum())} box "
                     "enclosures miss the brute-force enclosure")
    shape_t = tuple(int(s) for s in shape)
    missed = 0
    lower, upper = np.asarray(lower), np.asarray(upper)
    for x, y in zip(xs, ys):
        if not np.all((lower <= x) & (x <= upper) & (lower <= y)
                      & (y <= upper)):
            continue
        src = box_of(x, lower, upper, shape_t)
        tgt = np.unravel_index(box_of(y, lower, upper, shape_t), shape_t)
        if exterior[src] or np.any(tgt < jmin[src]) or \
                np.any(tgt > jmax[src]):
            missed += 1
    if missed:
        fails.append(f"data: {missed} sample pairs miss their source "
                     "box's targets")
    adj = edge_matrix(want_min, want_max, want_ext, shape_t)
    graph_fails, _ = check_morse_graph(adj, regions, order, "data")
    fails += graph_fails
    n_boxes = int(np.prod(shape_t))
    complete = adj.nnz == n_boxes * n_boxes
    if complete and (len(regions) != 1 or labels[0] != ("x - 1", "0", "0")):
        fails.append("data: complete graph but not one node labelled "
                     "(x - 1, 0, 0)")
    return fails

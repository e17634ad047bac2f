"""Recurrence and order structure of a box map.

The condensation collapses strongly connected components; components
containing at least one edge are recurrent, and the Morse graph is the
poset of recurrent components under reachability.

condensation works on a pyramid of box maps.  Halving every axis of
size > 1 gives the next coarser level, down to at most _COARSEST_BOXES
boxes.  A coarse box's range is the hull of its non-exterior children's
ranges, shifted down one level, so a fine edge a -> b gives the coarse
edge parent(a) -> parent(b).  Going from the coarsest level to the
finest, each level expands only its candidate boxes (all boxes at the
coarsest level) into a CSR graph (BoxMap.graph), which may hold hub
nodes, numbered after the boxes, and which comes with the level's box
edge count and self-loops.  A hub is not a box: it links boxes to
boxes, and is dropped from every label, closure and downset.  scipy's
strongly connected components give its recurrent boxes; a
breadth-first search gives the forward closure D of those boxes, and
the children of D are the next level's candidates.  A fine box
reachable from a fine cycle lies under D, so the candidates hold the
union of the fine downsets and every edge out of it.  The SCCs, the
recurrent components and every downset of the candidate graph are
therefore those of the whole grid; a box outside the candidates is a
non-recurrent singleton.  A breadth-first search on the finest
candidate graph gives each downset and, with it, the Morse order.
"""

from __future__ import annotations

import json

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components

from .errors import BoxdynError, NodeNotRecurrent
from .grid import CubicalGrid, PhaseSpace, sorted_unique
from .outer_approx import BoxMap

# the coarsest level of condensation's pyramid has at most this many boxes
_COARSEST_BOXES = 1 << 12


class Condensation:
    """SCC partition of a box map with recurrence flags.

    Component ids are the smallest linearized box index of each member
    set, which makes numbering deterministic across runs.  candidates
    is a sorted, forward-closed set of boxes that holds every box a
    recurrent box reaches, labels their component ids (any other box is
    its own component), and graph the box map's CSR graph on them, in
    positions of candidates, hub nodes after them.  levels records,
    coarsest first, each level's grid shape, its candidate boxes, the
    edges of the box graph on them (as BoxMap.graph counts them from
    the ranges), the edges stored and the hub nodes.
    """

    def __init__(self, boxmap: BoxMap, labels: np.ndarray,
                 recurrent: np.ndarray, candidates: np.ndarray,
                 graph: csr_matrix, levels: list):
        self.boxmap = boxmap
        self.labels = labels  # position in candidates -> component id
        self.recurrent = recurrent  # sorted array of recurrent component ids
        self.candidates = candidates
        self.graph = graph
        self.levels = levels
        self._recurrent_set = set(int(c) for c in recurrent)
        self._downsets = {}  # recurrent component id -> downset (read-only)

    def component_of(self, box: int) -> int:
        """Component id of a box; BoxdynError for an index off the grid."""
        box = int(self.boxmap.grid.box_indices([box])[0])
        at = np.searchsorted(self.candidates, box)
        hit = at < self.candidates.size and self.candidates[at] == box
        return int(self.labels[at]) if hit else box

    def members(self, cid: int) -> np.ndarray:
        """Sorted boxes of component cid (cid alone if off the candidates)."""
        boxes = self.candidates[self.labels == int(cid)]
        if boxes.size or self.component_of(cid) != int(cid):
            return boxes
        return np.array([int(cid)], dtype=np.int64)

    def is_recurrent(self, cid: int) -> bool:
        return int(cid) in self._recurrent_set


def _coarsen(bm: BoxMap) -> BoxMap:
    """The box map one level up, with every axis of size > 1 halved.

    A coarse box's range is the hull of its non-exterior children's
    ranges, shifted down one level on each halved axis; it is exterior
    iff all its children are.  No oracle is called.
    """
    grid = bm.grid
    shape, d = grid.shape, grid.dimension
    halved = [k for k in range(d) if shape[k] > 1]
    # one array per coordinate, so that halving reads long strided runs;
    # exterior children must not widen the hull
    lo, hi = bm.jmin.T.copy(), bm.jmax.T.copy()
    lo[:, bm.exterior] = np.iinfo(lo.dtype).max
    hi[:, bm.exterior] = -1
    lo, hi = lo.reshape((d,) + shape), hi.reshape((d,) + shape)
    ext = bm.exterior.reshape(shape)
    for k in halved:
        even = (slice(None),) * k + (slice(0, None, 2),)
        odd = (slice(None),) * k + (slice(1, None, 2),)
        lo = np.minimum(lo[(slice(None),) + even], lo[(slice(None),) + odd])
        hi = np.maximum(hi[(slice(None),) + even], hi[(slice(None),) + odd])
        ext = ext[even] & ext[odd]
    for k in halved:
        lo[k] >>= 1
        hi[k] >>= 1
    coarse = CubicalGrid(grid.space, [max(s - 1, 0) for s in grid.subdivisions])
    return BoxMap(coarse, jmin=lo.reshape(d, -1).T,
                  jmax=hi.reshape(d, -1).T, exterior=ext.reshape(-1))


def _graph(indptr, indices) -> csr_matrix:
    """Square CSR graph with the given rows.  csgraph reads only the
    pattern, so every entry is one shared read-only 1.0 (a zero-stride
    view): no array of edge weights is stored."""
    ones = np.broadcast_to(np.float64(1.0), indices.shape)
    m = indptr.size - 1
    return csr_matrix((ones, indices, indptr), shape=(m, m))


def _forward_closure(graph: csr_matrix, seeds: np.ndarray,
                     m: int) -> np.ndarray:
    """Sorted nodes below m reachable from the seeds, seeds included:
    one breadth-first search from an added source row pointing at them.
    The nodes from m on are hubs, dropped with the source."""
    source = graph.shape[0]
    indptr = np.append(graph.indptr, graph.indptr[-1] + seeds.size)
    indices = np.concatenate((graph.indices, seeds.astype(graph.indices.dtype)))
    reach = breadth_first_order(_graph(indptr, indices), source, directed=True,
                                return_predecessors=False)
    return np.sort(reach[reach < m])


def condensation(boxmap: BoxMap) -> Condensation:
    """SCC decomposition of a box map.

    A component is recurrent when it holds two boxes or a box with a
    self-loop (BoxMap.graph reports both the self-loops and the hubs,
    its nodes from the candidate count on).  The SCCs are computed level
    by level on the candidate boxes of a pyramid (see the module
    docstring); a grid of at most _COARSEST_BOXES boxes is a single
    level holding every box.
    """
    levels = [boxmap]
    while levels[-1].n_boxes > _COARSEST_BOXES:
        levels.append(_coarsen(levels[-1]))
    candidates = np.arange(levels[-1].n_boxes, dtype=np.int64)
    records = []
    for k in reversed(range(len(levels))):
        m = candidates.size
        indptr, indices, box_edges, self_loops = levels[k].graph(candidates)
        graph = _graph(indptr, indices)
        records.append({"shape": list(levels[k].grid.shape),
                        "candidate_boxes": int(m),
                        "candidate_edges": box_edges,
                        "graph_edges": int(graph.nnz),
                        "hub_nodes": int(graph.shape[0] - m)})
        n_comp, label = connected_components(graph, directed=True,
                                             connection="strong")
        recurrent = np.bincount(label[:m], minlength=n_comp) >= 2
        recurrent[label[:m][self_loops]] = True
        if k == 0:
            break
        closure = _forward_closure(graph, np.flatnonzero(recurrent[label]), m)
        candidates = levels[k].grid.children(candidates[closure],
                                             levels[k - 1].grid)
    # each component is named by its smallest member box; hubs, the
    # nodes from m on, are not boxes
    label = label[:m]
    smallest = np.full(n_comp, boxmap.n_boxes, dtype=np.int64)
    np.minimum.at(smallest, label, candidates)
    return Condensation(boxmap, smallest[label], np.sort(smallest[recurrent]),
                        candidates, graph, records)


def downset(cond: Condensation, cid: int) -> np.ndarray:
    """All boxes reachable from the component's region, region included.

    The search starts from the box cid alone: the region is strongly
    connected, so every other member is reached from it.  It runs on
    cond.graph, the candidate graph of the box map cond was computed
    from, which holds every box a recurrent box reaches.  The result is
    memoized on cond, so the Morse graph and the index pairs share one
    search per component.
    """
    if not cond.is_recurrent(cid):
        raise NodeNotRecurrent(f"component {cid} is not recurrent")
    ds = cond._downsets.get(int(cid))
    if ds is None:
        start = int(np.searchsorted(cond.candidates, int(cid)))
        reach = breadth_first_order(cond.graph, start, directed=True,
                                    return_predecessors=False)
        ds = cond.candidates[np.sort(reach[reach < cond.candidates.size])]
        ds.flags.writeable = False  # shared by every caller
        cond._downsets[int(cid)] = ds
    return ds


class IndexPairC:
    """Combinatorial index pair: nested forward-invariant box sets."""

    def __init__(self, p1: np.ndarray, p0: np.ndarray):
        self.p1 = np.asarray(p1, dtype=np.int64)
        self.p0 = np.asarray(p0, dtype=np.int64)


def index_pair(cond: Condensation, cid: int) -> IndexPairC:
    """Index pair (downset, downset minus region) for a recurrent
    component of cond.boxmap.

    Exterior boxes cannot be in a forward-invariant set and are dropped;
    none is recurrent, so every region box is in P1, and P0 is P1 with
    the region removed.
    """
    ds = downset(cond, cid)
    p1 = ds[~cond.boxmap.exterior[ds]]
    p0 = np.delete(p1, np.searchsorted(p1, cond.members(cid)))
    return IndexPairC(p1, p0)


def verify_attracting_block(boxmap: BoxMap, boxes) -> bool:
    """True iff every box's targets stay inside the set (exterior vacuous)."""
    boxes = sorted_unique(boxmap.grid.box_indices(boxes))
    return bool(np.isin(boxmap.expand(boxes)[1], boxes).all())


class MorseGraph:
    """Poset of recurrent components with regions, downsets, and indices.

    Nodes are numbered 0..m-1 in order of each component's smallest
    member box.  order holds strict pairs (lower, upper): lower < upper
    means upper reaches lower.  downsets is None for a graph rebuilt
    from JSON.
    """

    def __init__(self, grid: CubicalGrid, component_ids, regions, downsets, order):
        self.grid = grid
        self.component_ids = list(int(c) for c in component_ids)
        self.regions = [np.asarray(r, dtype=np.int64) for r in regions]
        self.downsets = (None if downsets is None else
                         [np.asarray(d, dtype=np.int64) for d in downsets])
        self.order = set((int(a), int(b)) for a, b in order)
        self.index_of = {}

    @property
    def nodes(self):
        return list(range(len(self.component_ids)))

    def region_of(self, q: int) -> np.ndarray:
        return self.regions[q]

    def downset_of(self, q: int) -> np.ndarray:
        if self.downsets is None:
            raise BoxdynError("this Morse graph holds no downsets (it was "
                              "rebuilt from JSON); recompute it from the box map")
        return self.downsets[q]

    def leq(self, a: int, b: int) -> bool:
        return a == b or (a, b) in self.order

    def minimal_nodes(self):
        return [q for q in self.nodes
                if not any((x, q) in self.order for x in self.nodes)]

    def hasse_edges(self):
        """Transitive reduction of the order, as (lower, upper) pairs."""
        out = []
        for a, b in sorted(self.order):
            if not any((a, c) in self.order and (c, b) in self.order
                       for c in self.nodes):
                out.append((a, b))
        return out

    def node_label(self, q: int) -> str:
        ci = self.index_of.get(q)
        if ci is None:
            return str(q)
        return f"{q} : {ci}"

    def to_dot(self) -> str:
        lines = ["digraph morse_graph {"]
        for q in self.nodes:
            lines.append(f'  n{q} [label="{self.node_label(q)}"];')
        for a, b in self.hasse_edges():
            lines.append(f"  n{b} -> n{a};")  # arrows follow the flow
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_jsonable(self) -> dict:
        nodes = []
        for q in self.nodes:
            ci = self.index_of.get(q)
            nodes.append(
                {
                    "id": q,
                    "component": self.component_ids[q],
                    "region": [int(b) for b in self.regions[q]],
                    "downset_size": (None if self.downsets is None
                                     else int(self.downsets[q].size)),
                    "conley_index": None if ci is None else ci.to_jsonable(),
                }
            )
        return {
            "grid": {
                "lower": [float(v) for v in self.grid.space.lower],
                "upper": [float(v) for v in self.grid.space.upper],
                "subdivisions": list(self.grid.subdivisions),
            },
            "nodes": nodes,
            "order": sorted([list(p) for p in self.order]),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), indent=2)


def morse_graph(cond: Condensation) -> MorseGraph:
    """Morse graph of a condensation: recurrent components ordered by
    reachability (possibly through non-recurrent components)."""
    comp_ids = [int(c) for c in cond.recurrent]
    regions = [cond.members(c) for c in comp_ids]
    downsets = [downset(cond, c) for c in comp_ids]
    order = set()
    ids = np.asarray(comp_ids, dtype=np.int64)
    for qi, ds in enumerate(downsets):
        # ds is sorted and holds at least its own component's id
        at = np.minimum(np.searchsorted(ds, ids), ds.size - 1)
        for qj in np.flatnonzero(ds[at] == ids):
            if qj != qi:
                order.add((int(qj), qi))  # qj < qi: qi reaches qj
    return MorseGraph(cond.boxmap.grid, comp_ids, regions, downsets, order)


def _is_int(v) -> bool:
    """Whether a JSON value is an integer: not a bool, not a float."""
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    """Whether a JSON value is a number: an integer or a float, not a bool."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def morse_graph_from_jsonable(doc: dict) -> MorseGraph:
    """Rebuild a MorseGraph, Conley indices included, from its JSON.

    Downsets are not stored, so the rebuilt graph has none and
    downset_of raises (the JSON document is a record of nodes, order,
    and regions).  BoxdynError if a grid depth is not an integer or a
    grid bound not a number (a bool or a text is neither), node ids are
    not their positions 0..m-1, a region box is not an integer, is off
    the grid or is in the regions of two nodes, a region is empty or its
    smallest box is not its node's component, an order pair does not
    name two distinct nodes (ids, components and order entries are
    integers, never floats or bools), or the order is not the full
    reachability order morse_graph writes: antisymmetric and
    transitively closed, which hasse_edges assumes.
    """
    # conley imports this module, so the import cannot be at the top
    from .conley import ConleyIndex

    g = doc["grid"]
    # CubicalGrid and PhaseSpace would cast 8.9 to 8 and false to 0.0
    for field, ok, kind in (("subdivisions", _is_int, "integers"),
                            ("lower", _is_number, "numbers"),
                            ("upper", _is_number, "numbers")):
        if not isinstance(g[field], list) or not all(map(ok, g[field])):
            raise BoxdynError(f"Morse graph record: grid {field} {g[field]} "
                              f"are not all {kind}")
    grid = CubicalGrid(PhaseSpace(g["lower"], g["upper"]), g["subdivisions"])
    nodes = doc["nodes"]
    ids = [nd["id"] for nd in nodes]
    # 0.0 == 0 and False == 0, so the types are checked too
    if ids != list(range(len(nodes))) or not all(map(_is_int, ids)):
        raise BoxdynError(f"Morse graph record: node ids {ids} are not "
                          f"0..{len(nodes) - 1} in order")
    for p in doc["order"]:
        if (len(p) != 2 or p[0] == p[1]
                or not all(_is_int(v) and 0 <= v < len(nodes) for v in p)):
            raise BoxdynError(f"Morse graph record: order pair {p} does not "
                              f"name two distinct nodes of {len(nodes)}")
    above = {}  # node -> the nodes above it
    for a, b in doc["order"]:
        above.setdefault(a, set()).add(b)
    for a, b in sorted(map(tuple, doc["order"])):
        if a in above.get(b, ()):
            raise BoxdynError(f"Morse graph record: order holds both ({a}, {b}) "
                              f"and ({b}, {a})")
        missing = above.get(b, set()) - above[a]
        if missing:
            c = min(missing)
            raise BoxdynError(f"Morse graph record: order holds ({a}, {b}) and "
                              f"({b}, {c}) but not ({a}, {c})")
    regions = [grid.box_indices(nd["region"]) for nd in nodes]
    boxes = np.sort(np.concatenate([sorted_unique(r) for r in regions]
                                   + [np.zeros(0, dtype=np.int64)]))
    shared = boxes[1:][boxes[1:] == boxes[:-1]]
    if shared.size:
        raise BoxdynError(f"Morse graph record: box {shared[0]} lies in the "
                          "regions of two nodes")
    for nd, r in zip(nodes, regions):
        if not r.size:
            raise BoxdynError(f"Morse graph record: node {nd['id']} has an "
                              "empty region")
        if not _is_int(nd["component"]) or nd["component"] != r.min():
            raise BoxdynError(f"Morse graph record: node {nd['id']} has "
                              f"component {nd['component']}, not its region's "
                              f"smallest box {r.min()}")
    mg = MorseGraph(
        grid,
        [nd["component"] for nd in nodes],
        regions,
        None,
        [tuple(p) for p in doc["order"]],
    )
    for nd in nodes:
        if nd.get("conley_index") is not None:
            mg.index_of[nd["id"]] = ConleyIndex.from_jsonable(nd["conley_index"])
    return mg

"""Recurrence and order structure of a box map.

The condensation collapses strongly connected components; components
containing at least one edge are recurrent, and the Morse graph is the
poset of recurrent components under reachability.  Every algorithm here
reads the box map's CSR adjacency: scipy's strongly connected
components give the condensation, and a breadth-first search from a
recurrent component gives its downset and, with it, the Morse order.
"""

from __future__ import annotations

import json

import numpy as np
from scipy.sparse.csgraph import breadth_first_order, connected_components

from .errors import BoxdynError, NodeNotRecurrent
from .grid import CubicalGrid, PhaseSpace
from .outer_approx import BoxMap


class Condensation:
    """SCC partition of a box map with recurrence flags.

    Component ids are the smallest linearized box index of each member
    set, which makes numbering deterministic across runs.
    """

    def __init__(self, boxmap: BoxMap, comp_of: np.ndarray,
                 recurrent: np.ndarray):
        self.boxmap = boxmap
        self.comp_of = comp_of  # flat box index -> component id
        self.recurrent = recurrent  # sorted array of recurrent component ids
        self._recurrent_set = set(int(c) for c in recurrent)
        self._dag_edges = None
        self._downsets = {}  # recurrent component id -> downset (read-only)

    def component_of(self, box: int) -> int:
        return int(self.comp_of[int(box)])

    def members(self, cid: int) -> np.ndarray:
        return np.flatnonzero(self.comp_of == int(cid))

    def is_recurrent(self, cid: int) -> bool:
        return int(cid) in self._recurrent_set

    def component_ids(self) -> np.ndarray:
        return np.unique(self.comp_of)

    @property
    def n_components(self) -> int:
        return self.component_ids().size

    def dag_edges(self):
        """Deduplicated edges between distinct components."""
        if self._dag_edges is None:
            coo = self.boxmap.adjacency().tocoo()
            cs, ct = self.comp_of[coo.row], self.comp_of[coo.col]
            keep = cs != ct
            self._dag_edges = set(zip(cs[keep].tolist(), ct[keep].tolist()))
        return self._dag_edges


def condensation(boxmap: BoxMap) -> Condensation:
    """SCC decomposition of a box map.

    A component is recurrent when it has at least two boxes or its one
    box has a self-loop.
    """
    adj = boxmap.adjacency()
    n_comp, label = connected_components(adj, directed=True,
                                         connection="strong")
    # each component is named by its smallest member box
    smallest = np.full(n_comp, adj.shape[0], dtype=np.int64)
    np.minimum.at(smallest, label, np.arange(adj.shape[0]))
    recurrent = np.bincount(label, minlength=n_comp) >= 2
    recurrent[label[adj.diagonal() != 0]] = True
    return Condensation(boxmap, smallest[label], np.sort(smallest[recurrent]))


def downset(cond: Condensation, cid: int) -> np.ndarray:
    """All boxes reachable from the component's region, region included.

    The search starts from the box cid alone: the region is strongly
    connected, so every other member is reached from it.  It runs on
    cond.boxmap, the map cond was computed from, and the result is
    memoized on cond, so the Morse graph and the index pairs share one
    search per component.
    """
    if not cond.is_recurrent(cid):
        raise NodeNotRecurrent(f"component {cid} is not recurrent")
    ds = cond._downsets.get(int(cid))
    if ds is None:
        reach = breadth_first_order(cond.boxmap.adjacency(), int(cid),
                                    directed=True, return_predecessors=False)
        ds = np.sort(reach).astype(np.int64)
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

    Exterior boxes are dropped: they cannot belong to a forward-invariant
    set realization (their image escaped the phase space).
    """
    ds = downset(cond, cid)
    ds = ds[~cond.boxmap.exterior[ds]]
    region = cond.members(cid)
    p0 = np.setdiff1d(ds, region, assume_unique=True)
    return IndexPairC(ds, p0)


def verify_attracting_block(boxmap: BoxMap, boxes) -> bool:
    """True iff every box's targets stay inside the set (exterior vacuous)."""
    boxes = np.unique(np.asarray(list(boxes), dtype=np.int64))
    mask = np.zeros(boxmap.n_boxes, dtype=bool)
    mask[boxes] = True
    return bool(mask[boxmap.adjacency()[boxes].indices].all())


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

    def __eq__(self, other):
        if not isinstance(other, MorseGraph):
            return NotImplemented
        return (
            self.grid == other.grid
            and self.component_ids == other.component_ids
            and self.order == other.order
            and all(np.array_equal(a, b) for a, b in zip(self.regions, other.regions))
            and self.index_of == other.index_of
        )


def morse_graph(cond: Condensation) -> MorseGraph:
    """Morse graph of a condensation: recurrent components ordered by
    reachability (possibly through non-recurrent components)."""
    boxmap = cond.boxmap
    comp_ids = [int(c) for c in cond.recurrent]
    regions = [cond.members(c) for c in comp_ids]
    downsets = [downset(cond, c) for c in comp_ids]
    order = set()
    for qi, ds in enumerate(downsets):
        for qj in np.flatnonzero(np.isin(comp_ids, ds)):
            if qj != qi:
                order.add((int(qj), qi))  # qj < qi: qi reaches qj
    return MorseGraph(boxmap.grid, comp_ids, regions, downsets, order)


def morse_graph_from_jsonable(doc: dict, index_factory=None) -> MorseGraph:
    """Rebuild a MorseGraph from its JSON document.

    Downsets are not stored, so the rebuilt graph has none and
    downset_of raises (the JSON document is a record of nodes, order,
    and regions).  index_factory maps the serialized Conley-index payload back to an
    index object.
    """
    g = doc["grid"]
    grid = CubicalGrid(PhaseSpace(g["lower"], g["upper"]), g["subdivisions"])
    nodes = doc["nodes"]
    mg = MorseGraph(
        grid,
        [nd["component"] for nd in nodes],
        [np.asarray(nd["region"], dtype=np.int64) for nd in nodes],
        None,
        [tuple(p) for p in doc["order"]],
    )
    if index_factory is not None:
        for nd in nodes:
            if nd.get("conley_index") is not None:
                mg.index_of[nd["id"]] = index_factory(nd["conley_index"])
    return mg

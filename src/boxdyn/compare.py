"""Projection of a fine Morse graph onto a coarse one.

Each coarse node owns a Morse tile: its downset minus the downsets of
all strictly smaller nodes.  A fine node projects to the unique coarse
node whose tile contains its whole region; a region meeting several
tiles (or escaping all of them) is a straddle and leaves the map
partial.  The resulting assignment stands in for the poset epimorphism
onto a Morse representation, with the coarse graph as the surrogate
target; whether coarse recurrence is genuine is not decidable here, so
Conley indices are the only evidence either way.
"""

from __future__ import annotations

import numpy as np

from .graph_dynamics import MorseGraph
from .grid import sorted_unique


class NuMap:
    """Assignment fine node -> coarse node with the findings of
    check_epimorphism on it (facts) and flags read from them."""

    def __init__(self, assignment, straddles, fine: MorseGraph,
                 coarse: MorseGraph):
        self.assignment = dict(assignment)
        # {"fine_node": q, "coarse_candidates": [...]} per unassigned node
        self.straddles = list(straddles)
        self.facts = check_epimorphism(self, fine, coarse)
        self.well_defined = self.facts["total"]
        self.surjective = self.facts["surjective"]
        self.order_preserving = self.facts["order_preserving"]

    def to_jsonable(self) -> dict:
        return {
            "assignment": {str(k): v for k, v in self.assignment.items()},
            "straddles": self.straddles,
            "epimorphism_check": self.facts,
            "note": (
                "The coarse Morse graph is an operational surrogate for a "
                "Morse representation of the underlying map; the projection "
                "relates two computed combinatorial objects."
            ),
        }


def morse_tiles(graph: MorseGraph) -> dict:
    """Tile of each node: downset minus the downsets of smaller nodes."""
    tiles = {}
    for q in graph.nodes:
        mask = np.zeros(graph.grid.box_count, dtype=bool)
        mask[graph.downset_of(q)] = True
        for qp in graph.nodes:
            if (qp, q) in graph.order:  # qp < q
                mask[graph.downset_of(qp)] = False
        tiles[q] = mask
    return tiles


def project(fine: MorseGraph, coarse: MorseGraph) -> NuMap:
    """Map each fine node to the coarse node whose tile holds its region."""
    fine.grid.refinement(coarse.grid)  # GridMismatch unless they nest
    tiles = morse_tiles(coarse)
    assignment = {}
    straddles = []
    for q in fine.nodes:
        cboxes = sorted_unique(fine.grid.parents(fine.region_of(q), coarse.grid))
        candidates = [m for m in coarse.nodes if tiles[m][cboxes].all()]
        if len(candidates) == 1:
            assignment[q] = candidates[0]
        else:
            if not candidates:
                # report which tiles the region touches
                candidates = [m for m in coarse.nodes if tiles[m][cboxes].any()]
            straddles.append({"fine_node": q, "coarse_candidates": candidates})

    return NuMap(assignment, straddles, fine, coarse)


def check_epimorphism(nu: NuMap, fine: MorseGraph, coarse: MorseGraph) -> dict:
    """Whether nu is a poset epimorphism: total on the fine nodes, onto
    the coarse nodes, and inverting no assigned pair of the fine order."""
    missing = [q for q in fine.nodes if q not in nu.assignment]
    unhit = sorted(set(coarse.nodes) - set(nu.assignment.values()))
    violations = []
    for a, b in fine.order:
        if a in nu.assignment and b in nu.assignment:
            if not coarse.leq(nu.assignment[a], nu.assignment[b]):
                violations.append(
                    {"fine_pair": [a, b],
                     "coarse_pair": [nu.assignment[a], nu.assignment[b]]}
                )
    return {
        "total": not missing,
        "missing_fine_nodes": missing,
        "surjective": not unhit,
        "unhit_coarse_nodes": unhit,
        "order_preserving": not violations,
        "order_violations": violations,
        "is_epimorphism": not missing and not unhit and not violations,
    }

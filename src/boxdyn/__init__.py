"""Rigorous global dynamics from evaluable map approximations.

Pipeline: a map oracle produces box-wise image enclosures on a cubical
grid; the resulting combinatorial outer approximation yields a Morse
graph (recurrent components plus reachability order), homology Conley
indices over a prime field for each node, and a projection comparing
analyses at different resolutions.
"""

from .compare import NuMap, check_epimorphism, morse_tiles, project
from .conley import (ConleyIndex, conley_index, format_poly,
                     invariant_factors_mod_p, nontriviality, shift_class,
                     shift_invariant_factors)
from .errors import (BoxdynError, CarrierNotAcyclic, ConfigError,
                     DimensionMismatch, EmptyDataset, GridMismatch,
                     NodeNotRecurrent, ParseError, PointOutsideDomain)
from .graph_dynamics import (Condensation, IndexPairC, MorseGraph,
                             condensation, downset, index_pair, morse_graph,
                             morse_graph_from_jsonable,
                             verify_attracting_block)
from .grid import CubicalGrid, PhaseSpace, Rect
from .homology import (ChainMapData, HomologyBasis, PairComplex, chain_map,
                       induced_homology_map)
from .oracles import (CallableOracle, LeslieOracle, LipschitzDataOracle,
                      MapOracle, MlpOracle, PiecewiseExample1D)
from .outer_approx import BoxMap, build_boxmap, encloses

__version__ = "0.1.0"

__all__ = [
    "BoxMap", "BoxdynError", "CallableOracle", "CarrierNotAcyclic",
    "ChainMapData", "Condensation", "ConfigError", "ConleyIndex",
    "CubicalGrid", "DimensionMismatch", "EmptyDataset", "GridMismatch",
    "HomologyBasis", "IndexPairC", "LeslieOracle", "LipschitzDataOracle",
    "MapOracle", "MlpOracle", "MorseGraph", "NodeNotRecurrent", "NuMap",
    "PairComplex", "ParseError", "PhaseSpace", "PiecewiseExample1D",
    "PointOutsideDomain", "Rect", "build_boxmap", "chain_map",
    "check_epimorphism", "condensation", "conley_index", "downset",
    "encloses", "format_poly", "index_pair", "induced_homology_map",
    "invariant_factors_mod_p", "morse_graph", "morse_graph_from_jsonable",
    "morse_tiles", "nontriviality", "project", "shift_class",
    "shift_invariant_factors", "verify_attracting_block",
]

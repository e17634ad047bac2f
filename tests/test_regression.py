"""Pinned full structures for the two flagship analyses.

These lock in the exact computed Morse decompositions — including the
spurious trivial-index nodes that a sound outer approximation produces
— so that any change in enclosure semantics, SCC computation, or index
machinery shows up as a structural diff rather than a silent drift.
"""

from boxdyn import (
    CubicalGrid,
    HomologyBasis,
    PairComplex,
    PhaseSpace,
    PiecewiseExample1D,
    build_boxmap,
    chain_map,
    condensation,
    conley_index,
    index_pair,
    induced_homology_map,
    morse_graph,
)


def analyzed(space, depths, oracle, rho, prime=5):
    grid = CubicalGrid(space, depths)
    bm = build_boxmap(grid, oracle, rho)
    cond = condensation(bm)
    mg = morse_graph(cond)
    for q, cid in enumerate(mg.component_ids):
        mg.index_of[q] = conley_index(bm, cond, cid, prime)
    return mg


def test_piecewise_depth10_structure():
    mg = analyzed(PhaseSpace([-2.0], [2.0]), [10], PiecewiseExample1D(1.5),
                  1e-3)
    labels = [mg.index_of[q].labels() for q in mg.nodes]
    sizes = [len(mg.region_of(q)) for q in mg.nodes]
    # Three genuine nodes (two attracting fixed points and the chaotic
    # repeller around x = 1) plus two single-box spurious nodes that
    # flank the repeller; the spurious pair carries a trivial index.
    assert len(mg.nodes) == 5
    assert labels == [("x - 1", "0"), ("0", "0"), ("0", "x - 1"),
                      ("0", "0"), ("x - 1", "0")]
    # per dimension, the invariant factors (ascending coefficients over
    # F_5) whose product is the label
    assert [mg.index_of[q].invariant_factors for q in mg.nodes] == [
        (((4, 1),), ()),
        ((), ()),
        ((), ((4, 1),)),
        ((), ()),
        (((4, 1),), ()),
    ]
    assert sizes == [2, 1, 2, 1, 2]
    assert sorted(mg.hasse_edges()) == [(0, 1), (1, 2), (3, 2), (4, 3)]
    assert mg.minimal_nodes() == [0, 4]


def test_piecewise_depth10_index_matrices():
    # the index map on H_0 and H_1 of each node, in node order
    grid = CubicalGrid(PhaseSpace([-2.0], [2.0]), [10])
    bm = build_boxmap(grid, PiecewiseExample1D(1.5), 1e-3)
    cond = condensation(bm)
    mats = []
    for cid in morse_graph(cond).component_ids:
        pair = index_pair(cond, cid)
        cx = PairComplex(grid, pair.p1, pair.p0, 5)
        m = induced_homology_map(chain_map(bm, cx), HomologyBasis(cx))
        mats.append([m[0].tolist(), m[1].tolist()])
    assert mats == [
        [[[1]], []],
        [[], []],
        [[], [[1]]],
        [[], []],
        [[[1]], []],
    ]


def test_leslie_depth9_structure(leslie_coarse):
    # Leslie at (9, 9), rho = 0.03, p = 5: computed once in conftest.py
    mg, _ = leslie_coarse
    sizes = [len(mg.region_of(q)) for q in mg.nodes]
    assert len(mg.nodes) == 6
    assert sizes == [1, 2301, 3, 18707, 4, 9574]
    labels = [mg.index_of[q].labels() for q in mg.nodes]
    assert labels == [
        ("0", "0", "0"),           # origin (unstable, on the domain boundary)
        ("x^3 - 1", "0", "0"),     # attracting period-3 orbit
        ("0", "0", "0"),           # spurious 3-box period-3 set at the saddle
        ("0", "x^3 - 1", "0"),     # saddle period-3 orbit and connecting set
        ("0", "0", "0"),           # spurious 4-box period-3 set at the saddle
        ("0", "0", "x - 1"),       # planar repelling fixed point
    ]
    assert [mg.index_of[q].invariant_factors for q in mg.nodes] == [
        ((), (), ()),
        (((4, 0, 0, 1),), (), ()),
        ((), (), ()),
        ((), ((4, 0, 0, 1),), ()),
        ((), (), ()),
        ((), (), ((4, 1),)),
    ]
    assert sorted(mg.hasse_edges()) == [(1, 4), (2, 0), (3, 2), (3, 5),
                                        (4, 3)]
    assert mg.minimal_nodes() == [1]
    for q in (0, 2, 4):
        assert mg.index_of[q].is_trivial()

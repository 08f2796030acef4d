import itertools
from collections import Counter

import pytest

from conftest import load_corpus
from cyclecover import build_graph, petersen
from cyclecover.covers import decompose_even_subgraph
from cyclecover.errors import (
    AllDegreeTwo,
    BridgeDeleted,
    LoopEdge,
    NotCubic,
    NotTwoFactor,
    Unsupported,
)
from cyclecover.graphs import (
    CubicGraph,
    Multigraph,
    bridges,
    connected_components,
    contract_two_factor,
    cyclic_connectivity_at_least,
    girth,
    is_bridgeless,
    suppress_degree_two,
    two_cut_join,
)


def test_build_k4(k4):
    assert (k4.n, k4.m) == (4, 6)
    assert not k4.has_parallel_edges


def test_build_petersen(pete):
    assert (pete.n, pete.m) == (10, 15)
    assert girth(pete) == 5


def test_build_rejects_degree_four():
    with pytest.raises(NotCubic):
        build_graph([(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4), (1, 3), (2, 4)])


def test_build_rejects_loop():
    with pytest.raises(LoopEdge):
        build_graph([(0, 0), (0, 1), (1, 2), (1, 2), (2, 0)])


def test_parallel_edges_flagged():
    g = build_graph([(0, 1), (0, 1), (0, 1)])
    assert g.has_parallel_edges
    assert (g.n, g.m) == (2, 3)


def test_dart_involution(pete):
    for d in range(2 * pete.m):
        assert pete.opposite(pete.opposite(d)) == d
        assert pete.opposite(d) != d
    for v in range(pete.n):
        assert len(pete.incident_darts(v)) == 3


def test_bridgeless(k4, pete):
    assert is_bridgeless(k4)
    assert is_bridgeless(pete)


def _bridged_cubic():
    # two K4 blocks, one subdivided edge each, subdivision points joined
    block = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (0, 4), (4, 3)]
    edges = list(block)
    edges += [(u + 5, v + 5) for u, v in block]
    edges += [(4, 9)]
    return build_graph(edges)


def test_bridge_detected():
    g = _bridged_cubic()
    assert not is_bridgeless(g)
    assert len(bridges(g)) == 1


@pytest.mark.parametrize("k,expect", [(2, True), (3, True), (4, True)])
def test_cyclic_connectivity_petersen(pete, k, expect):
    assert cyclic_connectivity_at_least(pete, k) is expect


def test_cyclic_connectivity_k4(k4):
    # K4 has no cycle-separating cut at all
    assert cyclic_connectivity_at_least(k4, 4)


def test_cyclic_connectivity_rejects_large_k(pete):
    with pytest.raises(Unsupported):
        cyclic_connectivity_at_least(pete, 5)


def test_two_cut_join_and_connectivity(k4):
    joined = two_cut_join(k4, 0, k4, 0)
    assert (joined.n, joined.m) == (8, 12)
    assert isinstance(joined, CubicGraph)
    assert not cyclic_connectivity_at_least(joined, 3)


def _scan_cyclic_connectivity(g, k):
    """Oracle: try every edge cut of size 1..k-1 and count the components of
    the rest that hold a circuit (at least as many edges as vertices)."""
    for size in range(1, k):
        for cut in itertools.combinations(range(g.m), size):
            rest = Multigraph(g.n, [uv for e, uv in enumerate(g.edges) if e not in cut])
            comp = {v: i for i, vs in enumerate(connected_components(rest)) for v in vs}
            edges = Counter(comp[u] for u, _ in rest.edges)
            verts = Counter(comp.values())
            if sum(edges[c] >= verts[c] for c in verts) >= 2:
                return False
    return True


_K4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
_PRISM = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]


def _k4_beside(edges):
    """K4 and, disjoint from it, the graph with the given edges."""
    return build_graph(_K4 + [(u + 4, v + 4) for u, v in edges])


def _connectivity_cases():
    cases = [(f"corpus-{i}", g) for i, g in enumerate(load_corpus(12))]
    cases += [
        # disconnected: the empty cut already separates two circuits
        ("2K4", _k4_beside(_K4)),
        ("K4+prism", _k4_beside(_PRISM)),
        # digons at both ends of a 4-circuit
        ("digons", build_graph([(0, 1), (0, 1), (0, 2), (1, 3), (2, 3), (2, 3)])),
        # two triangles that each hold a digon, so one edge leaves each
        ("digon triangles", build_graph([(0, 1), (0, 1), (0, 2), (1, 2), (2, 5),
                                         (3, 4), (3, 4), (3, 5), (4, 5)])),
        ("P+P", two_cut_join(petersen(), 0, petersen(), 0)),
    ]
    return cases


@pytest.mark.parametrize("k", [2, 3, 4])
def test_cyclic_connectivity_matches_exhaustive_scan(k):
    cases = _connectivity_cases()
    assert any(g.has_parallel_edges for _, g in cases)
    for name, g in cases:
        assert cyclic_connectivity_at_least(g, k) is _scan_cyclic_connectivity(g, k), name


def test_two_cut_join_rejects_bridge():
    g = _bridged_cubic()
    bridge = bridges(g)[0]
    with pytest.raises(BridgeDeleted):
        two_cut_join(g, bridge, g, bridge)


def test_suppress_path():
    # path of degree-2 vertices between two degree-3 vertices becomes one edge
    g = Multigraph(8, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (5, 6), (6, 7),
                       (7, 1), (7, 2), (1, 2)])
    reduced, rmap = suppress_degree_two(g)
    assert reduced.n == 4
    long_paths = [p for p in rmap.edge_path if len(p) > 1]
    assert len(long_paths) == 1
    assert len(long_paths[0]) == 5  # edges 3-4-5-6-7 collapse to one


def test_suppress_all_degree_two():
    g = Multigraph(6, [(i, (i + 1) % 6) for i in range(6)])
    with pytest.raises(AllDegreeTwo):
        suppress_degree_two(g)


def test_suppress_petersen_minus_chords(pete):
    # delete the chords of a 9-circuit: the reduction has at most 4 vertices
    from cyclecover.solvers import circumference
    from cyclecover.graphs import edge_subgraph

    length, circ = circumference(pete)
    assert length == 9
    on_c = set(circ.vertices)
    chords = [e for e in range(pete.m) if e not in circ.edge_set
              and pete.edges[e][0] in on_c and pete.edges[e][1] in on_c]
    keep = [e for e in range(pete.m) if e not in chords]
    sub, _ = edge_subgraph(pete, keep)
    reduced, rmap = suppress_degree_two(sub)
    assert reduced.n <= 4


def test_contract_two_factor_petersen(pete):
    from cyclecover.solvers import enumerate_perfect_matchings

    pm = enumerate_perfect_matchings(pete)[0]
    factor = frozenset(range(pete.m)) - pm
    contracted, cmap = contract_two_factor(pete, factor)
    # every Petersen 2-factor is two 5-circuits
    assert contracted.n == 2
    assert contracted.m == 5
    assert contracted.has_parallel_edges
    assert not contracted.loops


def test_contract_two_factor_prism(prism):
    factor = frozenset(e for e, (u, v) in enumerate(prism.edges)
                       if (u < 3) == (v < 3))
    contracted, cmap = contract_two_factor(prism, factor)
    assert (contracted.n, contracted.m) == (2, 3)


def test_contract_rejects_non_factor(pete):
    with pytest.raises(NotTwoFactor):
        contract_two_factor(pete, frozenset(range(6)))


def test_girth_parallel():
    g = build_graph([(0, 1), (0, 1), (0, 1)])
    assert girth(g) == 2

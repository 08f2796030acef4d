import random
from itertools import combinations

import pytest
from conftest import load_bridgeless_corpus, load_snarks18, relabelled
from substrate import factor_circuits, greedy_decomposition

from cyclecover import flower, petersen
from cyclecover.covers import (
    _canonicalize_walk,
    Circuit,
    CycleCover,
    KCdc,
    circuit_from_walk,
    circuit_of,
    decompose_even_subgraph,
    lift_cover,
    trace_circuit,
    validate,
)
from cyclecover.errors import GraphError
from cyclecover.graphs import Multigraph, _walks, suppress_degree_two
from cyclecover.solvers import edge_colouring_3, enumerate_perfect_matchings, shortest_cycle_cover


def test_circuit_canonical_rotation_reflection():
    a = circuit_from_walk([0, 1, 2, 3], [10, 11, 12, 13])
    b = circuit_from_walk([2, 3, 0, 1], [12, 13, 10, 11])
    c = circuit_from_walk([3, 2, 1, 0], [10, 13, 12, 11])
    assert a == b == c


def _least_rotation(edges, vertices):
    """Every rotation in both directions, compared one by one."""
    L = len(edges)
    best = None
    for j in range(L):
        fwd = (tuple(edges[j:] + edges[:j]), tuple(vertices[j:] + vertices[:j]))
        bwd = (tuple(edges[(j - 1 - i) % L] for i in range(L)),
               tuple(vertices[(j - i) % L] for i in range(L)))
        for cand in (fwd, bwd):
            if best is None or cand < best:
                best = cand
    return best


def test_canonical_walk_matches_all_rotations_oracle():
    rng = random.Random(5)
    for trial in range(300):
        L = 2 + trial % 9  # digons included
        edges, vertices = rng.sample(range(40), L), rng.sample(range(40), L)
        want = _least_rotation(edges, vertices)
        for j in range(L):
            e, v = edges[j:] + edges[:j], vertices[j:] + vertices[:j]
            assert _canonicalize_walk(e, v) == want
            # the same circuit walked the other way from v[0]
            assert _canonicalize_walk(e[::-1], [v[0]] + v[:0:-1]) == want
        # walks that repeat an edge id are no circuits, but still agree
        e = [rng.randrange(4) for _ in range(L)]
        v = [rng.randrange(4) for _ in range(L)]
        assert _canonicalize_walk(e, v) == _least_rotation(e, v)


def test_trace_circuit_triangle(k4):
    circ = trace_circuit(k4, [0, 1, 3])  # edges (0,1),(0,2),(1,2)
    assert len(circ) == 3
    assert set(circ.vertices) == {0, 1, 2}


@pytest.mark.parametrize("bad", [-1, 6])
def test_trace_circuit_refuses_ids_outside_the_graph(k4, bad):
    # -1 is not read as the last edge
    with pytest.raises(ValueError, match="not an edge of the graph"):
        trace_circuit(k4, [0, 1, 3, bad])


def test_circuit_of_takes_any_walk_of_a_circuit(k4):
    circ = trace_circuit(k4, [0, 1, 3])
    e, v = circ.edges, circ.vertices
    assert circuit_of(k4, Circuit(e[1:] + e[:1], v[1:] + v[:1])) == circ
    assert circuit_of(k4, Circuit(e[::-1], v[:1] + v[:0:-1])) == circ
    with pytest.raises(GraphError, match="is not a circuit of the graph: edge"):
        circuit_of(k4, Circuit(e, v[1:] + v[:1]))


def test_decompose_two_factor(pete):
    from cyclecover.solvers import enumerate_perfect_matchings

    pm = enumerate_perfect_matchings(pete)[0]
    comps = decompose_even_subgraph(pete, frozenset(range(15)) - pm)
    assert [len(c) for c in comps] == [5, 5]
    # re-uniting returns the same edge set
    assert frozenset().union(*(c.edge_set for c in comps)) == frozenset(range(15)) - pm


def test_decompose_rejects_odd_degrees(k4):
    with pytest.raises(ValueError):
        decompose_even_subgraph(k4, [0, 1])


def _two_factors():
    """(g, perfect matching mask) for every perfect matching of the
    bridgeless corpus graphs, P, J5, the 18-vertex snarks and two relabelled
    copies of J9."""
    j9 = flower(9)
    graphs = [*load_bridgeless_corpus(12), petersen(), flower(5), *load_snarks18(),
              relabelled(j9, 1), relabelled(j9, 2)]
    for g in graphs:
        for pm in enumerate_perfect_matchings(g):
            yield g, sum(1 << e for e in pm)


def test_walks_of_two_factors_match_the_reference_walker():
    for g, pm in _two_factors():
        walks = _walks(g, ((1 << g.m) - 1) & ~pm)
        assert [edges for edges, _ in walks] == factor_circuits(g, pm)
        for edges, verts in walks:
            assert verts[0] == min(verts) and len(set(verts)) == len(verts)
            for i, e in enumerate(edges):
                assert set(g.edges[e]) == {verts[i], verts[(i + 1) % len(verts)]}


def test_decompose_matches_the_greedy_reference_on_two_factors_and_their_parts():
    for g, pm in _two_factors():
        factor = [e for e in range(g.m) if not pm >> e & 1]
        circuits = decompose_even_subgraph(g, factor)
        assert circuits == greedy_decomposition(g, factor)
        for c in circuits:
            assert trace_circuit(g, c.edges) == c
        for r in range(1, len(circuits)):
            for part in combinations(circuits, r):
                edges = frozenset().union(*(c.edge_set for c in part))
                assert decompose_even_subgraph(g, edges) == greedy_decomposition(g, edges)


def test_a_digon_traces_to_a_two_circuit():
    g = Multigraph(2, [(0, 1), (0, 1), (0, 1)])
    digon = Circuit((0, 2), (0, 1))
    assert trace_circuit(g, [2, 0]) == digon
    assert decompose_even_subgraph(g, {0, 2}) == (digon,)


@pytest.mark.parametrize("split", [trace_circuit, decompose_even_subgraph])
def test_a_loop_is_no_circuit(split):
    g = Multigraph(2, [(0, 0), (0, 1), (0, 1)])
    with pytest.raises(ValueError):
        split(g, [0])


@pytest.mark.parametrize("split", [trace_circuit, decompose_even_subgraph])
def test_a_vertex_of_degree_four_is_refused(split):
    # two triangles at vertex 0: even, but not 2-regular
    g = Multigraph(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
    with pytest.raises(ValueError, match="vertex 0 has degree 4"):
        split(g, range(6))


@pytest.mark.parametrize("bad", [-1, 6])
def test_decompose_refuses_ids_outside_the_graph(k4, bad):
    with pytest.raises(ValueError, match="not an edge of the graph"):
        decompose_even_subgraph(k4, [0, 1, 3, bad])


def test_cover_weights_and_length_identity(k4):
    res = shortest_cycle_cover(k4)
    cover = res.cover
    w = cover.edge_weight(k4.m)
    assert cover.length == sum(w)
    vw = cover.vertex_weight(k4)
    assert 2 * cover.length == sum(vw)
    assert all(x >= 4 for x in vw)
    # weight 4 exactly when the incident weights are {1,1,2}
    for v in range(k4.n):
        if vw[v] == 4:
            ws = sorted(w[e] for e in k4.incident_edges[v])
            assert ws == [1, 1, 2]


def test_validate_colour_pair_cdc(k4):
    colour = edge_colouring_3(k4)
    classes = [frozenset(e for e in range(k4.m) if colour[e] in pair)
               for pair in ((1, 2), (1, 3), (2, 3))]
    kcdc = KCdc.of(classes)
    report = validate(kcdc, k4)
    assert report.ok and report.is_cdc
    cover = kcdc.as_cover(k4)
    assert cover.length == 12
    assert validate(cover, k4).is_cdc


def test_validate_reports_missing_edge(k4):
    circ = trace_circuit(k4, [0, 1, 3])
    report = validate(CycleCover.of([circ]), k4)
    assert not report.ok
    assert report.missing_edges


def test_validate_rejects_a_circuit_that_repeats_an_edge(pete):
    # edge 0 joins 0 and 1; walking it there and back is no circuit
    report = validate(CycleCover.of([Circuit((0, 0), (0, 1))]), pete)
    assert not report.ok
    assert "circuit (0, 0) repeats an edge" in report.problems


def test_validate_accepts_a_digon_of_parallel_edges():
    g = Multigraph(2, [(0, 1), (0, 1), (0, 1)])
    cover = CycleCover.of([circuit_from_walk([0, 1], [0, 1]), circuit_from_walk([1, 2], [0, 1])])
    report = validate(cover, g)
    assert report.ok, report.problems
    assert report.weight_histogram == {1: 2, 2: 1}


@pytest.mark.parametrize("obj, weighted", [
    (CycleCover.of([Circuit((0, 1, 99), (0, 1, 2))]), {0, 1}),
    (CycleCover.of([Circuit((0, 1, 99), (0, 1))]), {0, 1}),
    (CycleCover.of([Circuit((-1, 3), (0, 1))]), {3}),
    (KCdc.of([{99}]), set()),
    (KCdc.of([{-1}]), set()),
])
def test_validate_reports_unknown_edges(obj, weighted, pete):
    report = validate(obj, pete)
    assert not report.ok and report.problems
    # ids that name no edge add no weight (-1 used to weigh on edge 14)
    assert report.weight_one_edges == weighted
    assert set(report.missing_edges) == set(range(15)) - weighted


def test_lift_preserves_validity():
    # K4 with one edge subdivided twice: suppression undoes the subdivision
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (4, 5), (5, 3), (2, 3)]
    g = Multigraph(6, edges)
    reduced, rmap = suppress_degree_two(g, range(g.m))
    assert reduced.n == 4
    res = shortest_cycle_cover(reduced)
    lifted = lift_cover(res.cover, rmap)
    assert validate(lifted, g).ok
    extra = sum(len(p) - 1 for c in res.cover.circuits
                for e in c.edges for p in [rmap.edge_path[e]])
    assert lifted.length == res.cover.length + extra


def test_lift_cdc_stays_cdc():
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (4, 5), (5, 3), (2, 3)]
    g = Multigraph(6, edges)
    reduced, rmap = suppress_degree_two(g, range(g.m))
    from cyclecover.solvers import find_cdc

    cdc = find_cdc(reduced)
    lifted = lift_cover(cdc, rmap)
    assert validate(lifted, g).is_cdc


def test_lift_rejects_unknown_edges():
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (4, 5), (5, 3), (2, 3)]
    g = Multigraph(6, edges)
    reduced, rmap = suppress_degree_two(g, range(g.m))
    bogus = circuit_from_walk([97, 98, 99], [0, 1, 2])
    with pytest.raises(GraphError, match="edge 97 not in the reduction map"):
        lift_cover(CycleCover.of([bogus]), rmap)

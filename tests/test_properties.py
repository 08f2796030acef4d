"""Corpus-wide invariants of the solvers and constructions."""

from conftest import check_kcdc, load_bridgeless_corpus, load_corpus, load_snarks18
from cyclecover import flower
from cyclecover.covers import decompose_even_subgraph, trace_circuit, validate
from cyclecover.graphs import is_bridgeless
from cyclecover.pcolour import (
    _P_MATCHINGS,
    _P_STARS,
    find_petersen_colouring,
    verify_petersen_colouring,
)
from cyclecover.solvers import (
    _Budget,
    _label_search,
    _matchings,
    edge_colouring_3,
    enumerate_perfect_matchings,
    find_cdc,
    perfect_matching_index,
    oddness,
    shortest_cycle_cover,
)


def test_scc_lower_bound_and_equality_structure():
    for g in load_bridgeless_corpus(10):
        res = shortest_cycle_cover(g)
        base = 4 * g.m // 3
        assert res.length >= base
        report = validate(res.cover, g)
        assert report.ok
        if res.length == base:
            # equality: a (1,2)-cover whose weight-1 edges form a 2-factor
            assert report.is_one_two_cover
            ones = report.weight_one_edges
            deg = [0] * g.n
            for e in ones:
                u, v = g.edges[e]
                deg[u] += 1
                deg[v] += 1
            assert all(d == 2 for d in deg)
        if res.length == base + 1:
            ones = report.weight_one_edges
            assert len(ones) == g.n - 1
            circs = decompose_even_subgraph(g, ones)
            assert sum(len(c) for c in circs) == g.n - 1


def test_cap_three_never_improves():
    for g in load_bridgeless_corpus(8):
        assert shortest_cycle_cover(g, cap=3).length == shortest_cycle_cover(g).length


def test_tau3_iff_colourable_corpus():
    # a cubic graph has a 3-class or a 4-class CDC exactly when it is
    # 3-edge-colourable
    for g in load_bridgeless_corpus(10):
        res = perfect_matching_index(g)
        colour = edge_colouring_3(g)
        assert (res.tau == 3) == (colour is not None)
        if colour is not None:
            assert sorted(colour) == list(range(g.m))
            for v in range(g.n):
                assert sorted(colour[e] for e in g.incident_edges[v]) == [1, 2, 3]
        for k in (3, 4):
            kcdc = find_cdc(g, k=k)
            assert (kcdc is not None) == (colour is not None)
            if kcdc is not None:
                check_kcdc(g, kcdc, k)


def test_petersen_colouring_iff_bridgeless_corpus():
    # Jaeger's conjecture holds on the corpus; a bridge rules a colouring out.
    # The search's matching cut is sound: a colouring exists exactly when the
    # bare labelling search finds one, and each perfect matching of P pulls
    # back to a stored perfect matching of g
    for g in [*load_corpus(12), *load_snarks18(), flower(5), flower(7)]:
        colouring = find_petersen_colouring(g)
        assert (colouring is not None) == is_bridgeless(g)
        assert (_label_search(g, _P_STARS, _Budget()) is not None) == is_bridgeless(g)
        if colouring is not None:
            assert verify_petersen_colouring(g, colouring) == (True, None)
            stored = set(_matchings(g).masks)
            for pm in _P_MATCHINGS:
                preimage = sum(1 << e for e, p in enumerate(colouring.assignment) if pm >> p & 1)
                assert preimage in stored


def test_oddness_even_and_matching_symmetric_differences():
    for g in load_bridgeless_corpus(8):
        assert oddness(g)[0] % 2 == 0
        pms = enumerate_perfect_matchings(g)
        for i in range(min(3, len(pms))):
            for j in range(i + 1, min(4, len(pms))):
                diff = pms[i] ^ pms[j]
                if diff:
                    comps = decompose_even_subgraph(g, diff)
                    assert all(len(c) % 2 == 0 for c in comps)

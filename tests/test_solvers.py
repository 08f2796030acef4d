from collections import Counter
from itertools import combinations

import pytest

from conftest import load_bridgeless_corpus, load_corpus, load_snarks18
from cyclecover import build_graph, flower, goldberg, permutation_snark, petersen, solvers, two_cut_join
from cyclecover.covers import Circuit, CycleCover, decompose_even_subgraph, trace_circuit, validate
from cyclecover.errors import Bridged, NodeLimitExceeded, NoThreePaths
from cyclecover.graphs import CubicGraph, Multigraph, contract_two_factor
from cyclecover.solvers import (
    _CircuitSpace,
    _near_factor_rests,
    _spectrum_over,
    circumference,
    edge_colouring_3,
    edge_weight_spectrum,
    enumerate_circuits,
    enumerate_perfect_matchings,
    find_cdc,
    oddness,
    perfect_matching_index,
    shortest_cycle_cover,
    three_disjoint_paths,
)


def test_circuits_k4(k4):
    circuits = enumerate_circuits(k4)
    assert len(circuits) == 7
    assert Counter(len(c) for c in circuits) == {3: 4, 4: 3}


def test_circuits_petersen(pete):
    circuits = enumerate_circuits(pete)
    by_len = Counter(len(c) for c in circuits)
    assert by_len[5] == 12
    assert by_len[6] == 10
    # cross-check the 5-circuit count against the 2-factor structure:
    # six 2-factors, each two 5-circuits, each 5-circuit in five 2-factors
    factors = [frozenset(range(15)) - pm for pm in enumerate_perfect_matchings(pete)]
    fives = set()
    for f in factors:
        for c in decompose_even_subgraph(pete, f):
            fives.add(c)
    assert len(fives) <= 12


def test_circuits_parallel_multigraph():
    g = CubicGraph(2, [(0, 1), (0, 1), (0, 1)])
    circuits = enumerate_circuits(g)
    assert len(circuits) == 3
    assert all(len(c) == 2 for c in circuits)


def test_scc_k4(k4):
    res = shortest_cycle_cover(k4)
    assert res.length == 8 == 4 * k4.m // 3
    assert res.optimal and res.weight_cap_used == 2
    assert validate(res.cover, k4).is_one_two_cover


def test_scc_petersen(pete):
    res = shortest_cycle_cover(pete)
    assert res.length == 21 == 4 * pete.m // 3 + 1
    report = validate(res.cover, pete)
    assert report.ok and report.is_one_two_cover
    # the weight-1 edges form a 9-circuit
    ones = res.cover.weight_one_edges(pete.m)
    circ = trace_circuit(pete, ones)
    assert len(circ) == 9


def test_scc_flower5():
    j5 = flower(5)
    res = shortest_cycle_cover(j5)
    assert res.length == 40 == 4 * j5.m // 3


def test_scc_deterministic_and_seed_independent(pete):
    a = shortest_cycle_cover(pete)
    b = shortest_cycle_cover(pete)
    c = shortest_cycle_cover(pete, seed_order=12345)
    assert a.cover == b.cover == c.cover


def test_scc_rejects_bridge():
    from test_graphs import _bridged_cubic

    with pytest.raises(Bridged):
        shortest_cycle_cover(_bridged_cubic())


def test_cap3_matches_cap2(k4, pete, prism, k33):
    for g in (k4, pete, prism, k33):
        assert shortest_cycle_cover(g, cap=3).length == shortest_cycle_cover(g, cap=2).length


def test_scc_deepening_petersen_pair(pete):
    # optimum 4m/3 + 2: both structural levels come up empty
    g = two_cut_join(pete, 0, pete, 0)
    res = shortest_cycle_cover(g)
    assert res.length == 42 == 4 * g.m // 3 + 2
    assert validate(res.cover, g).ok
    assert shortest_cycle_cover(g, seed_order=7).cover == res.cover


def test_perfect_matchings(k4, pete):
    assert len(enumerate_perfect_matchings(k4)) == 3
    pms = enumerate_perfect_matchings(pete)
    assert len(pms) == 6
    # symmetric difference of two matchings is an even subgraph of even circuits
    for a in pms:
        for b in pms:
            if a == b:
                continue
            comps = decompose_even_subgraph(pete, a ^ b)
            assert all(len(c) % 2 == 0 for c in comps)


def _least_vertex_matchings(g):
    """Oracle: perfect matchings by branching on the least unmatched vertex,
    sorted by their sorted edge tuples."""
    res = []
    matched = [False] * g.n

    def rec(chosen):
        v = next((x for x in range(g.n) if not matched[x]), -1)
        if v == -1:
            res.append(frozenset(chosen))
            return
        for e in g.incident_edges[v]:
            u, w = g.edges[e]
            other = w if u == v else u
            if other == v or matched[other]:
                continue
            matched[v] = matched[other] = True
            chosen.append(e)
            rec(chosen)
            chosen.pop()
            matched[v] = matched[other] = False

    rec([])
    res.sort(key=lambda s: tuple(sorted(s)))
    return res


def test_perfect_matchings_match_least_vertex_oracle(pete, j5):
    digons = build_graph([(0, 1), (0, 1), (0, 2), (1, 3), (2, 3), (2, 3)])
    # loops at 0 and 3 beside two digons: loops never enter a matching
    looped = Multigraph(4, [(0, 0), (0, 1), (0, 1), (1, 2), (2, 3), (2, 3), (3, 3), (0, 3)])
    graphs = [*load_corpus(12), pete, j5, goldberg(5), digons, looped]
    for g in graphs:
        assert enumerate_perfect_matchings(g) == _least_vertex_matchings(g)
    assert len(enumerate_perfect_matchings(looped)) == 5


def _two_regular_avoiding(g, x):
    """Oracle: every 2-regular edge set covering exactly the vertices other
    than x, as an edge mask, by deciding the edges in id order, include first."""
    usable = [e for e in range(g.m) if x not in g.edges[e]]
    deg = [0] * g.n
    incident_left = [0] * g.n
    for e in usable:
        u, v = g.edges[e]
        incident_left[u] += 1
        incident_left[v] += 1
    out = []

    def rec(i, chosen):
        if i == len(usable):
            out.append(sum(1 << e for e in chosen))
            return
        e = usable[i]
        u, v = g.edges[e]
        # include e
        if deg[u] < 2 and deg[v] < 2:
            deg[u] += 1
            deg[v] += 1
            incident_left[u] -= 1
            incident_left[v] -= 1
            if deg[u] + incident_left[u] >= 2 and deg[v] + incident_left[v] >= 2:
                chosen.append(e)
                rec(i + 1, chosen)
                chosen.pop()
            incident_left[u] += 1
            incident_left[v] += 1
            deg[u] -= 1
            deg[v] -= 1
        # exclude e
        incident_left[u] -= 1
        incident_left[v] -= 1
        if deg[u] + incident_left[u] >= 2 and deg[v] + incident_left[v] >= 2:
            rec(i + 1, chosen)
        incident_left[u] += 1
        incident_left[v] += 1

    rec(0, [])
    return out


def test_near_two_factors_match_include_first_oracle(k4, pete, j5):
    # a digon at vertex 0; a digon between the neighbours 1 and 2 of vertex 0
    digon_at_x = build_graph([(0, 1), (0, 1), (0, 2), (1, 3), (2, 4), (2, 5), (3, 4), (3, 5),
                              (4, 5)])
    digon_between = build_graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 2), (3, 4), (3, 5),
                                 (4, 5), (4, 5)])
    graphs = [*load_corpus(12), pete, j5, two_cut_join(pete, 0, k4, 0),
              two_cut_join(pete, 0, pete, 0), *load_snarks18(), digon_at_x, digon_between]
    for g in graphs:
        full = (1 << g.m) - 1
        for x in range(g.n):
            assert [full & ~rest for rest in _near_factor_rests(g, x)] == _two_regular_avoiding(g, x)
    assert _near_factor_rests(digon_at_x, 0) == []
    assert len(_near_factor_rests(digon_between, 0)) == 2
    # the oracle offers the empty set at x = 0, which leaves vertex 1 uncovered
    theta = build_graph([(0, 1)] * 3)
    assert _two_regular_avoiding(theta, 0) == [0]
    assert _near_factor_rests(theta, 0) == _near_factor_rests(theta, 1) == []


def test_matching_store_shared_by_consecutive_calls(monkeypatch):
    calls = []
    original = solvers.enumerate_perfect_matchings

    def counting(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(solvers, "enumerate_perfect_matchings", counting)
    # fresh graph objects, so no earlier test has filled their store
    g, h = petersen(), flower(5)
    oddness(g)
    perfect_matching_index(g)
    shortest_cycle_cover(g)
    assert calls == [g]
    for graph in (h, g, h):
        oddness(graph)
    assert calls == [g, h, g, h]


def test_tau_values(k4, pete):
    assert perfect_matching_index(k4).tau == 3
    assert perfect_matching_index(flower(5)).tau == 4
    res = perfect_matching_index(pete)
    assert res.tau == 5
    union = frozenset().union(*res.matchings)
    assert union == frozenset(range(pete.m))


def test_tau_matches_colourability(k4, pete, prism, k33):
    for g in (k4, pete, prism, k33):
        colourable = edge_colouring_3(g) is not None
        assert (perfect_matching_index(g).tau == 3) == colourable


def test_oddness(k4, pete):
    assert oddness(k4)[0] == 0
    odd, factor = oddness(pete)
    assert odd == 2
    comps = decompose_even_subgraph(pete, factor)
    assert sorted(len(c) for c in comps) == [5, 5]
    assert oddness(flower(5))[0] == 2


def _oddness_by_decomposition(g):
    """(oddness, witness) straight from each 2-factor's circuit decomposition."""
    best = None
    for pm in enumerate_perfect_matchings(g):
        f = frozenset(range(g.m)) - pm
        comps = decompose_even_subgraph(g, f)
        key = (sum(len(c) % 2 for c in comps), len(comps))
        if best is None or key < best[0]:
            best = (key, f)
    return best[0][0], best[1]


def test_oddness_matches_decomposition(k4, prism, pete, j5):
    # the small corpus graphs have ties that only the component count breaks
    for g in (k4, prism, pete, j5, *load_snarks18(), *load_bridgeless_corpus(10)):
        assert oddness(g) == _oddness_by_decomposition(g)


def test_oddness_always_even(k4, pete, prism, k33):
    for g in (k4, pete, prism, k33, flower(5)):
        assert oddness(g)[0] % 2 == 0


def test_circumference(k4, pete):
    assert circumference(k4)[0] == 4
    length, circ = circumference(pete)
    assert length == 9
    assert len(set(circ.vertices)) == 9
    # flower snarks are hypohamiltonian: circumference n - 1
    assert circumference(flower(5))[0] == 19


def test_edge_colouring(k4, pete):
    colour = edge_colouring_3(k4)
    assert colour is not None
    for v in range(k4.n):
        assert sorted(colour[e] for e in k4.incident_edges[v]) == [1, 2, 3]
    assert edge_colouring_3(pete) is None
    g = CubicGraph(2, [(0, 1), (0, 1), (0, 1)])
    assert edge_colouring_3(g) is not None


def test_find_cdc_circuit_form(k4, pete, j5):
    cdc = find_cdc(k4)
    assert validate(cdc, k4).is_cdc
    # strong CDC through a 9-circuit of the Petersen graph
    _, circ = circumference(pete)
    cdc = find_cdc(pete, must_contain=[circ])
    assert cdc is not None and validate(cdc, pete).is_cdc
    assert circ in cdc.circuits
    # a third copy of a circuit leaves its edges a negative demand
    assert find_cdc(pete, must_contain=[circ] * 3) is None
    ham = trace_circuit(k4, [0, 2, 3, 5])  # 0-1-2-3
    assert find_cdc(k4, must_contain=[ham] * 3) is None
    # forced entries that are no circuit of g: three edges of a graph of
    # girth 5, and the two 4-circuits of the cube taken as one
    assert find_cdc(pete, must_contain=[Circuit((0, 1, 2), (0, 1, 2))]) is None
    cube = build_graph([(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
                        (0, 4), (1, 5), (2, 6), (3, 7)])
    assert find_cdc(cube, must_contain=[Circuit(tuple(range(8)), tuple(range(8)))]) is None
    # every vertex of a CDC lies on three circuits that pairwise share an
    # edge; forcing two of them leaves that edge no demand and its ends a
    # target weight of 2
    for g in [pete, j5, *load_bridgeless_corpus(12)]:
        pair = next((c1, c2) for c1, c2 in combinations(find_cdc(g).circuits, 2)
                    if c1.edge_set & c2.edge_set)
        got = find_cdc(g, must_contain=pair)
        assert got is not None and validate(got, g).is_cdc
        rest = list(got.circuits)
        for c in pair:
            rest.remove(c)  # raises unless the CDC holds both


def test_find_cdc_k5_two_factor(pete):
    # a 5-CDC with a 2-factor class would force tau <= 4: impossible for Petersen
    assert find_cdc(pete, k=5, two_factor_class=True) is None
    got = find_cdc(flower(5), k=5, two_factor_class=True)
    assert got is not None
    assert validate(got, flower(5)).is_cdc


def test_spectrum_k4(k4):
    spec = edge_weight_spectrum(k4)
    assert spec.optimal_length == 8
    assert all(s == frozenset({1, 2}) for s in spec.per_edge)


def test_spectrum_petersen(pete):
    spec = edge_weight_spectrum(pete)
    assert spec.optimal_length == 21
    assert spec.n_optimal_covers == 20
    assert all(1 in s for s in spec.per_edge)


# two permutation graphs on 14 vertices, with 46 and 21 optimal covers
_PERMS = ((1, 0, 5, 2, 6, 4, 3), (6, 0, 3, 1, 4, 2, 5))


def _full_space(g, length, cap=2):
    """(length, covers, per_edge) of the covers of that length, enumerated
    over every circuit of g: the route kept for optima above 4m/3 + 1."""
    spec = _spectrum_over(_CircuitSpace(g), cap, length)
    return spec.optimal_length, spec.n_optimal_covers, spec.per_edge


def test_spectrum_matches_full_space_route(k4, pete):
    join = two_cut_join(pete, 0, k4, 0)
    for g in (*map(permutation_snark, _PERMS), join):
        spec = edge_weight_spectrum(g)
        length = spec.optimal_length
        assert (length, spec.n_optimal_covers, spec.per_edge) == _full_space(g, length)
        assert _full_space(g, length - 1)[1] == 0
    assert edge_weight_spectrum(join).optimal_length == 4 * join.m // 3 + 1


def test_spectrum_cap3_matches_cap2(pete):
    # no edge of a cover of length 4m/3 or 4m/3 + 1 can reach weight 3
    for g in (pete, permutation_snark(_PERMS[0])):
        spec = edge_weight_spectrum(g, cap=3)
        assert spec == edge_weight_spectrum(g)
        assert _full_space(g, spec.optimal_length, cap=3)[1:] == (spec.n_optimal_covers,
                                                                 spec.per_edge)


def test_spectrum_flower5(j5):
    spec = edge_weight_spectrum(j5)
    assert (spec.optimal_length, spec.n_optimal_covers) == (40, 182)
    assert all(s == frozenset({1, 2}) for s in spec.per_edge)


def test_spectrum_node_budget_spans_every_search(j5):
    # J5's covers come from CDC searches through several 2-factors, so a
    # budget of one node less than their sum fits each search on its own
    spec = edge_weight_spectrum(j5)
    assert edge_weight_spectrum(j5, node_limit=spec.nodes) == spec
    with pytest.raises(NodeLimitExceeded) as exc:
        edge_weight_spectrum(j5, node_limit=spec.nodes - 1)
    # the abort reports the whole budget spent, not the last search's count
    assert exc.value.nodes == spec.nodes


def test_three_disjoint_paths_contracted_petersen(pete):
    pm = enumerate_perfect_matchings(pete)[0]
    contracted, cmap = contract_two_factor(pete, frozenset(range(15)) - pm)
    paths, d = three_disjoint_paths(contracted, 0, 1)
    assert d == 3
    assert all(len(p) == 1 for p in paths)


def test_three_disjoint_paths_through_middle():
    # path of 3 vertices with triple edges: each path has 2 edges
    g = Multigraph(3, [(0, 1)] * 3 + [(1, 2)] * 3)
    paths, d = three_disjoint_paths(g, 0, 2)
    assert d == 6
    assert all(len(p) == 2 for p in paths)
    used = [e for p in paths for e in p]
    assert len(set(used)) == 6


def test_three_disjoint_paths_errors():
    g = Multigraph(3, [(0, 1)] * 3 + [(1, 2)] * 3)
    with pytest.raises(ValueError):
        three_disjoint_paths(g, 1, 1)
    g2 = Multigraph(2, [(0, 1), (0, 1)])
    with pytest.raises(NoThreePaths):
        three_disjoint_paths(g2, 0, 1)

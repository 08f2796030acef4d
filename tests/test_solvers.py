import os
import random
from collections import Counter
from itertools import combinations

import pytest

from conftest import DATA, load_bridgeless_corpus, load_corpus, load_snarks18, relabelled
from cyclecover import build_graph, flower, goldberg, permutation_snark, petersen, solvers, two_cut_join
from cyclecover.covers import (
    Circuit,
    CycleCover,
    circuit_from_walk,
    decompose_even_subgraph,
    trace_circuit,
    validate,
)
from cyclecover.errors import HypothesisViolated, NodeLimitExceeded
from cyclecover.families import parse_graph6, write_graph6
from cyclecover.graphs import CubicGraph, Multigraph, contract_two_factor, is_spanning_regular
from cyclecover.pcolour import find_petersen_colouring
from cyclecover.solvers import (
    _CircuitSpace,
    _circuits,
    _CoverEngine,
    _matchings,
    _near_factor_rests,
    _partition_tables,
    _spectrum_over,
    _structured_covers,
    _transition_covers,
    circumference,
    edge_colouring_3,
    edge_weight_spectrum,
    enumerate_circuits,
    enumerate_perfect_matchings,
    find_cdc,
    oddness,
    perfect_matching_index,
    shortest_cycle_cover,
    TauResult,
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


def _raw_circuits(g):
    """Oracle: each simple circuit once, as (sorted edge tuple, vertex tuple),
    by a DFS from each edge e0 along larger edge ids."""
    adj = [[] for _ in range(g.n)]
    for e, (u, v) in enumerate(g.edges):
        if u == v:
            continue  # loops are never part of a circuit
        adj[u].append((e, v))
        adj[v].append((e, u))
    for lst in adj:
        lst.sort()
    out = []

    def dfs(cur, e0, u0, onpath_mask, path_edges, path_verts):
        for e, w in adj[cur]:
            if e <= e0:
                continue
            if w == u0:
                out.append((tuple(sorted(path_edges + [e])), tuple(path_verts)))
                continue
            if onpath_mask >> w & 1:
                continue
            path_edges.append(e)
            path_verts.append(w)
            dfs(w, e0, u0, onpath_mask | (1 << w), path_edges, path_verts)
            path_edges.pop()
            path_verts.pop()

    for e0, (u0, v0) in enumerate(g.edges):
        if u0 == v0:
            continue
        dfs(v0, e0, u0, (1 << u0) | (1 << v0), [e0], [u0, v0])
    return out


def _alternating_circuits(g, rest, x=-1):
    """Oracle: all circuits that pass, at every vertex other than x, one edge
    of the 2-regular subgraph E - rest and one edge of ``rest``; with x = -1
    E - rest is a 2-factor, otherwise it misses x, and a circuit may pass x by
    any two of its edges."""
    f_adj = [[] for _ in range(g.n)]
    r_edge = [-1] * g.n
    for e, (u, v) in enumerate(g.edges):
        if rest >> e & 1:
            r_edge[u] = r_edge[v] = e
        else:
            f_adj[u].append((e, v))
            f_adj[v].append((e, u))
    x_adj = [(e, g.other_end(e, x)) for e in g.incident_edges[x]] if x >= 0 else ()
    out = []

    def extend(cur, e_in, e0, u0, visited, path_e, path_v):
        # cur was entered by the rest edge e_in
        if cur == x:
            for e2, y in x_adj:
                if e2 <= e0 or e2 == e_in or visited >> y & 1:
                    continue
                path_e.append(e2)
                path_v.append(y)
                extend(y, e2, e0, u0, visited | 1 << y, path_e, path_v)
                path_v.pop()
                path_e.pop()
            return
        # continue along a factor edge, then along the far end's rest edge
        for f, w in f_adj[cur]:
            if w == u0:
                out.append((path_e + [f], tuple(path_v)))
                continue
            if visited >> w & 1:
                continue
            e2 = r_edge[w]
            if e2 <= e0:
                continue
            y = g.other_end(e2, w)
            if y == u0:
                if u0 == x:
                    out.append((path_e + [f, e2], (*path_v, w)))
                continue
            if visited >> y & 1:
                continue
            path_e += (f, e2)
            path_v += (w, y)
            extend(y, e2, e0, u0, visited | 1 << w | 1 << y, path_e, path_v)
            del path_v[-2:]
            del path_e[-2:]

    for e0, (u0, v0) in enumerate(g.edges):
        if rest >> e0 & 1 and u0 != v0:
            extend(v0, e0, e0, u0, (1 << u0) | (1 << v0), [e0], [u0, v0])
    return out


def _circuit_list(walks):
    """Circuits as sorted (edge tuple, vertex tuple) pairs, repeats kept."""
    return sorted((tuple(sorted(edges)), tuple(sorted(verts))) for edges, verts in walks)


def test_every_circuit_matches_dfs_oracle():
    digons = build_graph([(0, 1), (0, 1), (0, 2), (1, 3), (2, 3), (2, 3)])
    looped = Multigraph(4, [(0, 0), (0, 1), (0, 1), (1, 2), (2, 3), (2, 3), (3, 3), (0, 3)])
    for g in [*load_corpus(12), digons, looped]:
        want = _circuit_list(_raw_circuits(g))
        assert _circuit_list(_circuits(g, (1 << g.m) - 1, (1 << g.n) - 1)) == want
    assert len(_circuits(looped, (1 << looped.m) - 1, (1 << looped.n) - 1)) == 6


def test_alternating_circuits_match_oracle(j5):
    spaces = 0
    for g in [*load_corpus(12), j5, *load_snarks18()]:
        for rest in _matchings(g).masks:
            assert _circuit_list(_circuits(g, rest, 0)) == _circuit_list(
                _alternating_circuits(g, rest))
            spaces += 1
        for x in range(g.n):
            for rest in _near_factor_rests(g, x):
                assert _circuit_list(_circuits(g, rest, 1 << x)) == _circuit_list(
                    _alternating_circuits(g, rest, x))
                spaces += 1
    assert spaces > 3000


def _covers_by_engine(g, rest, x):
    """Oracle: the covers through the weight-1 edges E - rest, by the cover
    engine over the circuits that alternate with them, with demand and cap 1
    on E - rest and 2 on rest."""
    space = _CircuitSpace(g, rest, 0 if x < 0 else 1 << x)
    demand = [1 + (rest >> e & 1) for e in range(g.m)]
    hits = []
    _CoverEngine(g, space, demand, demand).search("all", bound=sum(demand), collect=hits.append)
    return Counter(tuple(sorted(space.elists[i] for i in hit)) for hit in hits)


def _weight_one_subgraphs(g):
    """(x, rest) for every 2-factor E - rest (x = -1) and every 2-regular
    subgraph E - rest missing only x, in the order of ``_structured_covers``."""
    return [(-1, pm) for pm in _matchings(g).masks] + [
        (x, rest) for x in range(g.n) for rest in _near_factor_rests(g, x)]


def test_transition_covers_match_engine_oracle(pete, j5):
    subgraphs = covers = 0
    for g0 in [*load_corpus(12), *load_snarks18(), pete, j5]:
        for g in (g0, relabelled(g0, 1), relabelled(g0, 2)):
            for x, rest in _weight_one_subgraphs(g):
                count, found, _ = _transition_covers(g, rest, x, decode=True)
                want = _covers_by_engine(g, rest, x)
                assert Counter(tuple(sorted(c)) for c in found) == want
                assert count == len(found) == _transition_covers(g, rest, x)[0]
                subgraphs += 1
                covers += count
    assert subgraphs > 10000 and covers > 30000


def test_transition_search_counts_one_running_budget(pete, j5):
    # the search counts on from the nodes it is given, and an abort reports
    # the running total
    for g in (pete, j5):
        for x, rest in _weight_one_subgraphs(g)[:20]:
            count, _, spent = _transition_covers(g, rest, x)
            total = 100 + spent
            assert _transition_covers(g, rest, x, nodes=100) == (count, [], total)
            assert _transition_covers(g, rest, x, node_limit=total, nodes=100)[2] == total
            with pytest.raises(NodeLimitExceeded) as exc:
                _transition_covers(g, rest, x, node_limit=total - 1, nodes=100)
            assert (exc.value.search, exc.value.nodes) == ("transitions", total)
    # over every weight-1 subgraph of scc, one budget
    res = shortest_cycle_cover(pete)
    assert res.stage == "4m/3+1" and res.nodes > len(_matchings(pete).masks)
    assert shortest_cycle_cover(pete, node_limit=res.nodes) == res
    with pytest.raises(NodeLimitExceeded) as exc:
        shortest_cycle_cover(pete, node_limit=res.nodes - 1)
    assert (exc.value.search, exc.value.nodes) == ("transitions", res.nodes)


def test_stage_names_the_settling_search(k4, pete):
    for g, stage in ((k4, "4m/3"), (pete, "4m/3+1"), (two_cut_join(pete, 0, k4, 0), "4m/3+1")):
        assert shortest_cycle_cover(g).stage == edge_weight_spectrum(g).stage == stage
    assert _spectrum_over(_CircuitSpace(k4, (1 << k4.m) - 1, (1 << k4.n) - 1), 2, 8).stage == (
        "deepening")


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
    assert a == b


def test_scc_rejects_bridge():
    from test_graphs import _bridged_cubic

    with pytest.raises(HypothesisViolated, match="no cycle cover exists: bridge"):
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
    assert res.stage == "deepening"
    # the deepening's search and witness are pinned: the two structured
    # levels take 6,800 transition nodes (1,228 engine nodes over alternating
    # circuit spaces before the transition search), the deepening 770
    assert _structured_covers(g)[2] == 6800
    assert res.nodes == 6800 + 770
    assert [c.edges for c in res.cover.circuits] == [
        (0, 1, 7, 12, 5), (1, 2, 8, 10, 6), (16, 21, 26, 25, 22), (17, 18, 23, 24, 22),
        (3, 4, 13, 12, 11, 8), (14, 19, 26, 27, 23, 20), (0, 6, 9, 4, 28, 17, 16, 15, 14, 29)]


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
    holders = _matchings(g).holders
    shortest_cycle_cover(g)
    find_petersen_colouring(g)
    assert calls == [g] and _matchings(g).holders is holders
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


def test_matching_store_counts_only_the_factors_it_needs():
    # a Hamiltonian 2-factor ends oddness, and an even one settles tau = 3,
    # before the last matching; Petersen has neither, so both read them all
    rng = random.Random(7)
    for g, lazy in ((_random_cubic(24, rng), True), (petersen(), False)):
        oddness(g)
        perfect_matching_index(g)
        store = _matchings(g)
        counted = list(store._counts)
        assert (len(counted) < len(store.masks)) == lazy
        assert store.factor_counts[:len(counted)] == counted


def test_matching_store_holders(pete, j5):
    # holders[e] has bit i exactly when stored matching i holds edge e
    for g in (pete, j5, Multigraph(2, [(0, 0), (1, 1)])):
        store = _matchings(g)
        assert store.holders == [sum(1 << i for i, pm in enumerate(store.masks) if pm >> e & 1)
                                 for e in range(g.m)]


def _tau_by_search(g, limit):
    """Smallest k in 3..limit with k perfect matchings covering E(g), or None.

    Exhaustive over k = 3, 4, ...: branch on the least uncovered edge over
    the matchings that hold it, banning each matching once its branch fails,
    and prune when the uncovered edges outnumber what the remaining
    matchings can hold.
    """
    masks = [sum(1 << e for e in pm) for pm in enumerate_perfect_matchings(g)]
    m, size = g.m, g.n // 2
    full = (1 << m) - 1
    per_edge = [[i for i, mk in enumerate(masks) if mk >> e & 1] for e in range(m)]
    if not masks or not all(per_edge):
        return None

    def cover_with(k):
        banned = [False] * len(masks)

        def rec(covmask, depth):
            if covmask == full:
                return True
            if depth == k or m - covmask.bit_count() > (k - depth) * size:
                return False
            x = ~covmask & full
            e = (x & -x).bit_length() - 1
            unban = []
            found = False
            for ci in per_edge[e]:
                if banned[ci]:
                    continue
                if rec(covmask | masks[ci], depth + 1):
                    found = True
                    break
                banned[ci] = True
                unban.append(ci)
            for ci in unban:
                banned[ci] = False
            return found

        return rec(0, 0)

    return next((k for k in range(3, limit + 1) if cover_with(k)), None)


def _random_cubic_24_to_40():
    rng = random.Random(1306)
    return [_random_cubic(24 + 2 * (i % 9), rng) for i in range(20)]


def _tau_graphs():
    """The corpus, the 18-vertex snarks, Petersen, J5, J7, J9, G5, J9 read
    back from graph6 and twice relabelled at random, two multigraphs and 20
    random cubic graphs."""
    digons = build_graph([(0, 1), (0, 1), (0, 2), (1, 3), (2, 3), (2, 3)])
    looped = Multigraph(4, [(0, 0), (0, 1), (1, 2), (1, 3), (2, 3), (2, 3)])
    j9 = flower(9)
    return [*load_corpus(12), *load_snarks18(), petersen(), flower(5), flower(7), j9,
            goldberg(5), parse_graph6(write_graph6(j9)), relabelled(j9, 1), relabelled(j9, 2),
            digons, looped, *_random_cubic_24_to_40()]


def test_tau_matches_search_oracle():
    # the labelling search depends on the edge order; its cuts keep every
    # order here within a few dozen nodes a k
    for g in _tau_graphs():
        for limit in (2, 3, 4, 5):
            res = perfect_matching_index(g, limit, node_limit=500)
            assert res.tau == _tau_by_search(g, limit)
            if res.above_limit:
                assert res.matchings == ()
                continue
            assert len(res.matchings) == res.tau
            assert all(is_spanning_regular(g, pm, 1) for pm in res.matchings)
            assert frozenset().union(*res.matchings) == frozenset(range(g.m))
            if res.tau == 3:
                assert all(not a & b for a, b in combinations(res.matchings, 2))


def test_tau_node_limit(k4, pete, j5):
    # a colourable graph settles tau = 3 from an even 2-factor, with no search
    assert perfect_matching_index(k4, node_limit=0).tau == 3
    assert perfect_matching_index(k4).nodes == 0
    # a loop lies in no perfect matching, so a looped graph needs none either
    looped = Multigraph(4, [(0, 0), (0, 1), (1, 2), (1, 3), (2, 3), (2, 3)])
    assert perfect_matching_index(looped, limit=6, node_limit=0) == TauResult(None, (), 0)
    for g, tau in ((pete, 5), (j5, 4)):
        with pytest.raises(NodeLimitExceeded) as exc:
            perfect_matching_index(g, node_limit=1)
        assert exc.value.nodes == 2
        assert perfect_matching_index(g, node_limit=10**6) == perfect_matching_index(g)
        assert perfect_matching_index(g).tau == tau


def test_tau_nodes_are_one_budget_over_every_k(pete):
    # Petersen's search proves k = 4 impossible, then finds k = 5; the budget
    # and the count both run over the two
    res = perfect_matching_index(pete)
    four = perfect_matching_index(pete, limit=4)
    assert four.above_limit and 0 < four.nodes < res.nodes
    assert perfect_matching_index(pete, node_limit=res.nodes) == res
    with pytest.raises(NodeLimitExceeded) as exc:
        perfect_matching_index(pete, node_limit=res.nodes - 1)
    assert exc.value.nodes == res.nodes


def test_partition_tables():
    for k, n_stars in ((4, 6), (5, 25), (6, 90)):  # Stirling numbers S(k, 3)
        subsets, stars = _partition_tables(k)
        assert len(subsets) == 2 ** k - 2 - k
        assert len(stars) == n_stars
        for star in stars:
            a, b, c = (subsets[i] for i in star)
            assert a | b | c == 2 ** k - 1 and not (a & b or a & c or b & c)


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
    # the small corpus graphs have ties that only the component count breaks,
    # and the random ones stop at a Hamiltonian 2-factor
    for g in (k4, prism, pete, j5, *load_snarks18(), *load_bridgeless_corpus(10),
              *_random_cubic_24_to_40()):
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
    assert circumference(flower(9))[0] == 35
    assert circumference(goldberg(5))[0] == 39


def _dfs_circumference(g):
    """The plain DFS: anchors v0 ascending, edges in id order, a circuit closed
    only by a larger edge id than its first, and no bound but the anchor's
    n - v0.  Returns the first longest circuit in that order."""
    adj = [[] for _ in range(g.n)]
    for e, (u, v) in enumerate(g.edges):
        if u != v:
            adj[u].append((e, v))
            adj[v].append((e, u))
    best = [0, None]

    def dfs(v0, cur, first_edge, visited, path_edges, path_verts):
        for e, w in adj[cur]:
            if w == v0:
                if e > first_edge and len(path_edges) + 1 > best[0]:
                    best[0] = len(path_edges) + 1
                    best[1] = (tuple(path_edges + [e]), tuple(path_verts))
            elif w > v0 and not visited >> w & 1:
                path_edges.append(e)
                path_verts.append(w)
                dfs(v0, w, first_edge, visited | 1 << w, path_edges, path_verts)
                path_edges.pop()
                path_verts.pop()

    for v0 in range(g.n):
        if g.n - v0 <= best[0]:
            break
        for e, w in adj[v0]:
            if w > v0:
                dfs(v0, w, e, 1 << v0 | 1 << w, [e], [v0, w])
    return (0, None) if best[1] is None else (best[0], circuit_from_walk(*best[1]))


def _random_cubic(n, rng):
    """A random simple cubic graph: pairing model, rejecting loops and
    parallel edges."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        pairs = {tuple(sorted(points[i:i + 2])) for i in range(0, 3 * n, 2)}
        if len(pairs) == 3 * n // 2 and all(u != v for u, v in pairs):
            return build_graph(sorted(pairs))


def test_circumference_matches_dfs_oracle(k4, prism, pete, j5):
    from test_graphs import _bridged_cubic

    with open(os.path.join(DATA, "analyze_golden.g6")) as fh:
        golden = [parse_graph6(line.strip()) for line in fh if line.strip()]
    digons = build_graph([(0, 1), (0, 1), (1, 2), (2, 3), (2, 3), (3, 4), (4, 5), (4, 5),
                          (5, 0)])
    looped = Multigraph(4, [(0, 0), (0, 1), (1, 2), (1, 3), (2, 3), (2, 3)])
    graphs = [*load_corpus(12), *load_snarks18(), *golden, k4, prism, pete, j5, flower(7),
              digons, looped, _bridged_cubic()]
    for g in graphs:
        assert circumference(g) == _dfs_circumference(g)
    assert circumference(digons)[0] == 6
    assert circumference(looped)[0] == 3


def test_circumference_n_iff_hamiltonian_two_factor():
    # a Hamiltonian circuit is exactly a 2-factor with one component
    rng = random.Random(2013)
    graphs = load_corpus(12) + [_random_cubic(n, rng) for n in (40, 44, 48, 52, 56)]
    for g in graphs:
        hamiltonian = any(circuits == 1 for _, circuits in _matchings(g).factor_counts)
        assert (circumference(g)[0] == g.n) == hamiltonian


def test_circumference_node_limit(j5):
    with pytest.raises(NodeLimitExceeded) as exc:
        circumference(j5, node_limit=5)
    assert exc.value.nodes == 6
    assert circumference(j5, node_limit=10**6) == circumference(j5)


def test_colouring_memo_returns_copies(monkeypatch):
    calls = []
    original = solvers._label_search

    def counting(g, *args, **kwargs):
        calls.append(g)
        return original(g, *args, **kwargs)

    monkeypatch.setattr(solvers, "_label_search", counting)
    g = flower(5)  # a fresh graph object with an empty memo
    assert edge_colouring_3(g) is None
    circumference(g)
    assert calls == [g]
    h = CubicGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    colour = edge_colouring_3(h)
    colour[0] = 99
    assert edge_colouring_3(h)[0] != 99
    assert calls == [g, h]


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


def _find_cdc_over_every_circuit(g, must_contain):
    """Oracle: the circuit-form CDC search with the same engine over every
    circuit of g."""
    space = _CircuitSpace(g, (1 << g.m) - 1, (1 << g.n) - 1)
    demand = [2] * g.m
    for c in must_contain:
        if tuple(sorted(c.edges)) not in space.elists:
            return None
        for e in c.edges:
            demand[e] -= 1
    if any(d < 0 for d in demand):
        return None
    found = _CoverEngine(g, space, demand, demand).search("first", bound=sum(demand))
    if found is None:
        return None
    return CycleCover.of([trace_circuit(g, c.edges) for c in must_contain]
                         + [space.circuit(i) for i in found])


def test_find_cdc_forced_circuits_match_every_circuit_oracle(pete):
    kinds = Counter()
    for g in [*load_bridgeless_corpus(10), pete]:
        circuits = enumerate_circuits(g)
        for i, c in enumerate(circuits):
            forced = [[c], [c, c]]
            later = circuits[i + 1:]
            apart = next((d for d in later if not set(c.vertices) & set(d.vertices)), None)
            if apart is not None:
                # the pair, and its union taken as one circuit
                union = Circuit(c.edges + apart.edges, c.vertices + apart.vertices)
                forced += [[c, apart], [union]]
            forced += [[c, d] for d in later[:2] if c.edge_set & d.edge_set]
            for must in forced:
                got = find_cdc(g, must_contain=must)
                assert got == _find_cdc_over_every_circuit(g, must)
                kinds[len(must), got is None] += 1
    assert all(kinds[size, found] for size in (1, 2) for found in (True, False))


def test_find_cdc_forced_circuit_searches_only_alternating_circuits():
    # at the parent commit the search over every circuit spent its
    # 1,000 nodes without a CDC
    g = flower(7)
    _, longest = circumference(g)
    cdc = find_cdc(g, must_contain=[longest], node_limit=1000)
    assert validate(cdc, g).is_cdc and longest in cdc.circuits


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
    spec = _spectrum_over(_CircuitSpace(g, (1 << g.m) - 1, (1 << g.n) - 1), cap, length)
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
    with pytest.raises(HypothesisViolated, match="only 2 disjoint paths exist"):
        three_disjoint_paths(g2, 0, 1)

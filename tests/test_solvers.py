import gc
import json
import math
import os
import random
from collections import Counter
from itertools import combinations, islice

import pytest

from conftest import DATA, load_bridgeless_corpus, load_corpus, load_snarks18, relabelled
from substrate import (
    decode_joins_by_trace,
    disjoint_union,
    join_search,
    transition_covers,
    truncation,
)
from cyclecover import (
    _engine,
    _sweep,
    build_graph,
    flower,
    goldberg,
    pcolour,
    permutation_snark,
    petersen,
    solvers,
    two_cut_join,
)
from cyclecover.covers import (
    Circuit,
    CycleCover,
    circuit_from_walk,
    decompose_even_subgraph,
    trace_circuit,
    validate,
)
from cyclecover.constructions import (
    cover_via_circumference,
    cover_via_oddness2,
    scc_cover_from_tau4,
)
from cyclecover.errors import GraphError, HypothesisViolated, NodeLimitExceeded
from cyclecover.families import parse_graph6, write_graph6
from cyclecover.graphs import CubicGraph, Multigraph, contract_two_factor, is_spanning_regular
from cyclecover.pcolour import find_petersen_colouring
from cyclecover._engine import _CircuitSpace, _circuits, _CoverEngine, _deepening, _spectrum_over
from cyclecover.solvers import (
    _bfs_edges,
    _Budget,
    _decode_joins,
    _every_cover,
    _join_search,
    _Joins,
    _matching_sweep,
    _matchings,
    _partition_tables,
    _structured_covers,
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
        assert _circuit_list(_circuits(g)) == want
    assert len(_circuits(looped)) == 6


def _space_of(g, walks):
    """A ``_CircuitSpace`` of g over the given circuit walks only."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_engine, "_circuits", lambda _: walks)
        return _CircuitSpace(g)


def _covers_by_engine(g, rest, x):
    """Oracle: the covers through the weight-1 edges E - rest, by the cover
    engine over the circuits that alternate with them (``_alternating_circuits``),
    with demand and cap 1 on E - rest and 2 on rest."""
    space = _space_of(g, _alternating_circuits(g, rest, x))
    demand = [1 + (rest >> e & 1) for e in range(g.m)]
    hits = _CoverEngine(g, space, demand, demand, _Budget()).covers(sum(demand))
    return Counter(tuple(sorted(space.elists[i] for i in hit)) for hit in hits)


def _circuit_sets(g, run):
    """The cover of a run of options as its circuits' sorted edge tuples,
    sorted, as ``_covers_by_engine`` counts them."""
    return tuple(sorted(tuple(sorted(c.edges)) for c in _decode_joins(g, run).circuits))


def _budget(limit=None, spent=0):
    """A budget of ``limit`` nodes that has already spent ``spent``."""
    budget = _Budget(limit)
    budget.nodes = spent
    return budget


def _run(search, *args, limit=None, spent=0):
    """(every cover a cover search yields, the nodes its budget holds after)
    on ``_budget(limit, spent)``."""
    budget = _budget(limit, spent)
    return list(search(*args, budget)), budget.nodes


def test_transition_covers_match_engine_oracle(pete, j5):
    # per 2-factor (the reference `transition_covers`), and over all
    # weight-1 subgraphs at once: the joint search of each level returns
    # the union of the oracle's covers over the 2-factors (excess 0), or
    # over every x and the 2-regular subgraphs missing only x (excess 1)
    digon_at_x = build_graph([(0, 1), (0, 1), (0, 2), (1, 3), (2, 4), (2, 5), (3, 4), (3, 5),
                              (4, 5)])
    digon_between = build_graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 2), (3, 4), (3, 5),
                                 (4, 5), (4, 5)])
    theta = build_graph([(0, 1)] * 3)
    subgraphs = covers = 0
    for g0 in [*load_corpus(12), *load_snarks18(), pete, j5, digon_at_x, digon_between, theta]:
        for g in (g0, relabelled(g0, 1), relabelled(g0, 2)):
            full, union = (1 << g.m) - 1, (Counter(), Counter())
            for pm in _matchings(g).masks:
                found, _ = _run(transition_covers, g, pm)
                want = _covers_by_engine(g, pm, -1)
                assert Counter(_circuit_sets(g, run) for _, run in found) == want
                assert [ones for ones, _ in found] == [full & ~pm] * len(found)
                union[0].update({(full & ~pm, cover): k for cover, k in want.items()})
            for x in range(g.n):
                for ones in _two_regular_avoiding(g, x):
                    want = _covers_by_engine(g, full & ~ones, x)
                    union[1].update({(ones, cover): k for cover, k in want.items()})
                    subgraphs += 1
            subgraphs += len(_matchings(g).masks)
            covers += sum(union[0].values()) + sum(union[1].values())
            for excess, want in enumerate(union):
                found, _ = _run(_every_cover, g, excess)
                assert Counter((ones, _circuit_sets(g, run)) for ones, run in found) == want
    assert subgraphs > 10000 and covers > 30000
    # vertex 0 has a digon to a neighbour, or three edges to one, so it lies
    # on C in every cover at 4m/3 + 1
    for g in (digon_at_x, theta):
        for ones, _ in _every_cover(g, 1, _Budget()):
            assert any(ones >> e & 1 for e in g.incident_edges[0])


def test_join_tables_match_the_truncation_graph(pete, j5):
    # the table of T_X built straight from g is the table of T_X built as a
    # graph, for every X of up to two vertices and for X = V, with g's m;
    # with X empty it reads g's own lists
    digon_at_x = build_graph([(0, 1), (0, 1), (0, 2), (1, 3), (2, 4), (2, 5), (3, 4), (3, 5),
                              (4, 5)])
    digon_between = build_graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 2), (3, 4), (3, 5),
                                 (4, 5), (4, 5)])
    theta = build_graph([(0, 1)] * 3)
    tables = 0
    for g in [*load_bridgeless_corpus(10), pete, j5, digon_at_x, digon_between, theta]:
        bare = _Joins(g)
        assert bare.ends is g.edges and bare.incident is g.incident_edges
        sets = [X for k in range(3) for X in combinations(range(g.n), k)] + [tuple(range(g.n))]
        for X in sets:
            t = truncation(g, X)
            table, want = _Joins(g, X), _Joins(t)
            assert table.m == g.m
            assert [tuple(uv) for uv in table.ends] == list(t.edges)
            assert [tuple(inc) for inc in table.incident] == list(t.incident_edges)
            assert (table.near, table.opp, table.vm) == (want.near, want.opp, want.vm)
            assert [table.pair(e) for e in range(t.m)] == [want.pair(e) for e in range(t.m)]
            tables += 1
    assert tables > 1500


def _every_cover_by_reference(g, excess):
    """What ``_every_cover`` yields and spends, from ``substrate.join_search``
    over the same sets X, edges and spaces."""
    found, nodes, everyone = [], 0, (1 << g.n) - 1
    for X in combinations(range(g.n), excess):
        edges = dict.fromkeys(e for x in X for e in g.incident_edges[x])
        out = [v for e in edges for v in g.edges[e] if v not in X]
        if len(set(out)) == len(out):
            space = everyone & ~sum(1 << v for v in {*X, *out})
            covers, spent = join_search(_Joins(g, X), edges, space)
            found += covers
            nodes += spent
    return found, nodes


def test_join_search_matches_the_reference_rule(pete, j5):
    # the search yields what the plain recursion over its documented rule
    # yields, in the same order, and spends the same nodes; twice over, so a
    # table that kept what the first search learnt gives the same again
    snarks = [pete, j5, *load_snarks18()]
    graphs = [*load_bridgeless_corpus(12), *snarks,
              *(relabelled(g, seed) for g in snarks for seed in (1, 2))]
    searched = 0
    for g in graphs:
        for excess in (0, 1):
            want = _every_cover_by_reference(g, excess)
            assert _run(_every_cover, g, excess) == want
            assert _run(_every_cover, g, excess) == want
            searched += bool(want[0])
    assert searched > 100


def test_spectrum_work_is_pinned(pete, j5):
    # (optimal covers, transition nodes) of the spectrum search
    g18 = load_snarks18()
    cases = [(pete, 20, 802), (j5, 182, 8348), (flower(7), 6050, 220834),
             (two_cut_join(pete, 0, pete, 0), 272, 80742), (g18[0], 22, 1480),
             (g18[1], 32, 1974)]
    for g, covers, nodes in cases:
        spec = edge_weight_spectrum(g)
        assert (spec.n_optimal_covers, spec.nodes) == (covers, nodes)


def test_cover_searches_build_no_graph(monkeypatch, pete, j5):
    # the truncations of the CDC search and of the spectrum's levels past
    # 4m/3 are join tables only
    built = []
    original = Multigraph.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Multigraph, "__init__", counting)
    assert find_cdc(j5) is not None
    assert edge_weight_spectrum(pete).stage == "4m/3+1"
    assert built == []


def test_transition_search_counts_one_running_budget(pete, j5):
    # the search counts on from the nodes its budget has spent, and an abort
    # reports the running total
    for g in (pete, j5):
        for pm in _matchings(g).masks[:20]:
            found, spent = _run(transition_covers, g, pm)
            total = 100 + spent
            assert _run(transition_covers, g, pm, spent=100) == (found, total)
            assert _run(transition_covers, g, pm, limit=total, spent=100)[1] == total
            with pytest.raises(NodeLimitExceeded) as exc:
                _run(transition_covers, g, pm, limit=total - 1, spent=100)
            assert (exc.value.search, exc.value.nodes) == ("transitions", total)
        found, spent = _run(_every_cover, g, 1)
        total = 100 + spent
        assert _run(_every_cover, g, 1, spent=100) == (found, total)
        assert _run(_every_cover, g, 1, limit=total, spent=100)[1] == total
        with pytest.raises(NodeLimitExceeded) as exc:
            _run(_every_cover, g, 1, limit=total - 1, spent=100)
        assert (exc.value.search, exc.value.nodes) == ("transitions", total)
    # and at excess 2, over every X of two vertices of P+P
    g = two_cut_join(pete, 0, pete, 0)
    found, spent = _run(_every_cover, g, 2)
    total = 100 + spent
    assert len(found) == 272
    assert _run(_every_cover, g, 2, spent=100) == (found, total)
    assert _run(_every_cover, g, 2, limit=total, spent=100)[1] == total
    with pytest.raises(NodeLimitExceeded) as exc:
        _run(_every_cover, g, 2, limit=total - 1, spent=100)
    assert (exc.value.search, exc.value.nodes) == ("transitions", total)
    # over every weight-1 subgraph of scc, one budget
    res = shortest_cycle_cover(pete)
    assert res.stage == "4m/3+1" and res.nodes > len(_matchings(pete).masks)
    assert shortest_cycle_cover(pete, node_limit=res.nodes) == res
    with pytest.raises(NodeLimitExceeded) as exc:
        shortest_cycle_cover(pete, node_limit=res.nodes - 1)
    assert (exc.value.search, exc.value.nodes) == ("transitions", res.nodes)


def test_stage_names_the_settling_search(monkeypatch, k4, pete, j5):
    # a colourable graph's cover comes from its colouring; the spectrum
    # searches every cover at 4m/3
    assert shortest_cycle_cover(k4).stage == "colouring"
    assert edge_weight_spectrum(k4).stage == "4m/3"
    for g, stage in ((j5, "4m/3"), (pete, "4m/3+1"), (two_cut_join(pete, 0, k4, 0), "4m/3+1")):
        assert shortest_cycle_cover(g).stage == edge_weight_spectrum(g).stage == stage
    # the engine's spectrum, at cap 3 past a cap-2 optimum of 4m/3 + 2 (a
    # stand-in level search reports K4's 8 as 10)
    levels = solvers._structured_covers
    monkeypatch.setattr(solvers, "_structured_covers", lambda g, budget: (10, levels(g, budget)[1]))
    assert edge_weight_spectrum(k4, cap=3).stage == "deepening"


def test_decode_builds_the_covers_the_trace_reference_builds(pete, j5):
    # each circuit comes from the run's own walk; the reference traces it
    # again from its edge set.  Every cover at the optimum of P (X of one
    # vertex), P+P (two), J5 and the 18-vertex snarks, ...
    runs = []
    for g in (pete, two_cut_join(pete, 0, pete, 0), j5, *load_snarks18()):
        runs += [(g, run) for _, run in _structured_covers(g, _Budget())[1]]
    # ... the first cover of each bridgeless corpus graph at its first
    # level, and the first CDCs of the circuit-form search (X = V)
    corpus = load_bridgeless_corpus(12)
    for g in corpus:
        runs.append((g, _structured_covers(g, _Budget(), first=True)[1][0][1]))
    for g in (*corpus, pete, j5, flower(7)):
        found = _join_search(_Joins(g, range(g.n)), _bfs_edges(g), 0, _Budget())
        runs += [(g, run) for _, run in islice(found, 20)]
    assert len(runs) == 20 + 272 + 182 + 22 + 32 + 107 + 2102
    for g, run in runs:
        assert _decode_joins(g, run) == decode_joins_by_trace(g, run)


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


def test_scc_builds_no_matching_store(monkeypatch):
    # the cover comes from a capped colouring search or from the joint
    # transition search, and neither lists a perfect matching
    def refuse(g):
        raise AssertionError("scc listed the perfect matchings")

    monkeypatch.setattr(solvers, "enumerate_perfect_matchings", refuse)
    monkeypatch.setattr(solvers, "_matching_sweep", refuse)
    p = petersen()  # fresh graph objects, whose store no earlier call holds
    k4 = build_graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    with open(os.path.join(DATA, "analyze_golden.g6")) as fh:
        stream = parse_graph6(fh.readline().strip())
    for g, stage in ((p, "4m/3+1"), (k4, "colouring"), (flower(5), "4m/3"),
                     (two_cut_join(petersen(), 0, petersen(), 0), "4m/3+2"),
                     (stream, "colouring")):
        res = shortest_cycle_cover(g)
        assert res.stage == stage and validate(res.cover, g).is_one_two_cover


def test_scc_of_large_snarks(monkeypatch):
    # J25 has 2^25 perfect matchings and G13 about 10^7, which the store
    # would list; the colouring search misses at its cap of 4m nodes, and
    # the joint search finds a cover at 4m/3 within a few hundred more
    monkeypatch.setattr(solvers, "enumerate_perfect_matchings", None)
    for g in (flower(25), goldberg(13)):
        res = shortest_cycle_cover(g, node_limit=5 * g.m)
        assert (res.length, res.stage) == (4 * g.m // 3, "4m/3")
        assert res.nodes > 4 * g.m and validate(res.cover, g).is_one_two_cover


def test_colour_route_checked_by_the_joint_search():
    # every cover the colouring settles is a (1,2)-cover of length 4m/3 whose
    # weight-2 edges are one colour class of the colouring edge_colouring_3
    # finds on a fresh copy of the graph (so not the one scc kept); the joint
    # transition search, asked for its first cover, reaches 4m/3 as well.
    # On these graphs the cap never cuts a colourable graph's search short
    settled = 0
    for g in (*load_bridgeless_corpus(12), *_random_cubic_24_to_40()):
        res = shortest_cycle_cover(g)
        colour = edge_colouring_3(CubicGraph(g.n, g.edges))
        assert (res.stage == "colouring") == (colour is not None)
        if colour is None:
            continue
        settled += 1
        report = validate(res.cover, g)
        assert report.ok and report.is_one_two_cover and res.length == 4 * g.m // 3
        twos = {e for e, w in enumerate(res.cover.edge_weight(g.m)) if w == 2}
        assert twos in [{e for e in range(g.m) if colour[e] == c} for c in (1, 2, 3)]
        assert _structured_covers(g, _Budget(), first=True)[0] == res.length
    assert settled == 125


def test_results_do_not_depend_on_call_history(k4, prism):
    # each public solver on a graph no call has seen (a fresh copy) gives
    # what it gives after any other solver on that graph, after all of them,
    # and after a call on another graph, witnesses and nodes included.  scc
    # keeps its colouring in the memo that edge_colouring_3 and
    # circumference read, and reads none itself
    calls = {
        "scc": shortest_cycle_cover,
        "spectrum": edge_weight_spectrum,
        "tau": perfect_matching_index,
        "oddness": oddness,
        "edge_colouring_3": edge_colouring_3,
        "circumference": circumference,
        "find_cdc": find_cdc,
        "find_cdc k=5": lambda g: find_cdc(g, k=5, two_factor_class=True),
        "perfect matchings": enumerate_perfect_matchings,
        "petersen colouring": find_petersen_colouring,
    }
    corpus = load_corpus(12)
    for g in (k4, corpus[3], corpus[12], petersen(), flower(5), two_cut_join(petersen(), 0, k4, 0)):
        for name, solve in calls.items():
            cold = solve(CubicGraph(g.n, g.edges))
            others = [other for key, other in calls.items() if key != name]
            for before in [*([other] for other in others), others, others[::-1]]:
                h = CubicGraph(g.n, g.edges)
                for other in before:
                    other(h)
                assert solve(h) == cold, name
                solve(CubicGraph(prism.n, prism.edges))
                assert solve(h) == cold, name


def test_disconnected_covers_add_up(k4, pete, j5):
    # a cover of a disjoint union is one cover of each component, so the
    # optimum is the sum of theirs, the optimal covers are their products
    # and each edge keeps the weights it has in its own component
    for parts, length in (((k4, k4), 16), ((pete, k4), 29), ((pete, pete), 42), ((j5, pete), 61)):
        g = disjoint_union(*parts)
        res = shortest_cycle_cover(g)
        assert res.length == length and validate(res.cover, g).ok
        alone = [edge_weight_spectrum(h) for h in parts]
        spec = edge_weight_spectrum(g)
        assert spec.optimal_length == length == sum(a.optimal_length for a in alone)
        assert spec.n_optimal_covers == math.prod(a.n_optimal_covers for a in alone)
        assert spec.per_edge == sum((a.per_edge for a in alone), ())


def test_cap3_matches_cap2(k4, pete, prism, k33):
    for g in (k4, pete, prism, k33):
        assert shortest_cycle_cover(g, cap=3).length == shortest_cycle_cover(g, cap=2).length


def test_scc_deepening_petersen_pair(pete):
    # optimum 4m/3 + 2: the levels |X| = 0 and 1 come up empty, and the
    # first cover has two vertices of weight 6
    g = two_cut_join(pete, 0, pete, 0)
    res = shortest_cycle_cover(g)
    assert res.length == 42 == 4 * g.m // 3 + 2
    assert validate(res.cover, g).is_one_two_cover
    assert res.stage == "4m/3+2"
    # the level route's search and witness are pinned: the colouring search
    # refutes in 14 labelling nodes, levels 0 and 1 take 354 and 9,280
    # transition nodes, and level 2 takes 1,608 more to its first cover;
    # for every cover the levels take 354, 9,280 and 71,108
    assert res.nodes == 14 + 354 + 9280 + 1608
    assert [_run(_every_cover, g, excess)[1] for excess in (0, 1, 2)] == [354, 9280, 71108]
    budget = _Budget()
    length, covers = _structured_covers(g, budget)
    assert (length, len(covers), budget.nodes) == (42, 272, 354 + 9280 + 71108)
    assert [c.edges for c in res.cover.circuits] == [
        (2, 3, 4, 13, 7), (16, 17, 18, 27, 21), (1, 6, 10, 11, 12, 7), (15, 20, 24, 25, 26, 21),
        (0, 6, 9, 4, 28, 18, 23, 20, 14, 29), (3, 8, 11, 5, 29, 19, 25, 22, 17, 28)]


def test_deepening_searches_only_below_the_cap_two_optimum(pete):
    # a weight above 2 makes a cover at least 4m/3 + 2 long, so the targets
    # start there and stop below the bound: none is left below 42, and the
    # engine at cap 3 takes 8,304 nodes to meet target 42
    g = two_cut_join(pete, 0, pete, 0)
    budget = _budget(spent=5)
    length, found, _ = _deepening(g, 3, 42, budget)
    assert (length, found, budget.nodes) == (None, None, 5)
    budget = _Budget()
    length, found, space = _deepening(g, 3, 43, budget)
    assert (length, budget.nodes) == (42, 8304)
    cover = CycleCover.of(map(space.circuit, found))
    assert cover.length == 42 and validate(cover, g).ok
    with pytest.raises(NodeLimitExceeded) as exc:
        _deepening(g, 3, 43, _Budget(8303))
    assert (exc.value.search, exc.value.nodes) == ("cover engine", 8304)


def test_cap_two_optima_run_no_cover_engine(monkeypatch, pete):
    # at cap 2 every level is a transition search; at cap 3 an optimum of
    # 4m/3 + 2 leaves no room for a weight above 2 to shorten it
    def refuse(*args, **kwargs):
        raise AssertionError("a cap-2 optimum built a circuit space or an engine")

    g = two_cut_join(pete, 0, pete, 0)
    monkeypatch.setattr(_engine, "_CircuitSpace", refuse)
    monkeypatch.setattr(_engine, "_CoverEngine", refuse)
    res = shortest_cycle_cover(g)
    three = shortest_cycle_cover(g, cap=3)
    assert (three.length, three.cover, three.nodes, three.stage) == (
        res.length, res.cover, res.nodes, "4m/3+2")
    assert three.weight_cap_used == 3
    for cross in (False, True):
        spec = edge_weight_spectrum(two_cut_join(pete, 0, pete, 0, cross=cross))
        assert (spec.optimal_length, spec.n_optimal_covers, spec.stage) == (42, 272, "4m/3+2")


def test_spectrum_reaches_the_engine_past_the_levels(pete):
    # at cap 3 the spectrum of P+P lists every cover of the levels (354,
    # 9,280 and 71,108 transition nodes), finds no target below 42 and
    # then spends its next node in the engine, loaded on demand
    g = two_cut_join(pete, 0, pete, 0)
    with pytest.raises(NodeLimitExceeded) as exc:
        edge_weight_spectrum(g, cap=3, node_limit=354 + 9280 + 71108)
    assert (exc.value.search, exc.value.nodes) == ("cover engine", 80_743)


def test_scc_deepening_through_the_public_call(monkeypatch, pete):
    # no small graph has a cap-2 optimum of 4m/3 + 3, so a stand-in level
    # search reports P+P's 42 as 43: the deepening then finds 42 in 8,304
    # engine nodes after 14 labelling and 11,242 transition nodes (19,560)
    levels = solvers._structured_covers
    monkeypatch.setattr(solvers, "_structured_covers",
                        lambda g, budget, first=False: (43, levels(g, budget, first)[1]))
    g = two_cut_join(pete, 0, pete, 0)
    res = shortest_cycle_cover(g, cap=3)
    assert (res.length, res.stage, res.nodes) == (42, "deepening", 19_560)
    assert validate(res.cover, g).ok


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


def _make_no_key(*args):
    raise AssertionError("a perfect matching was listed")
    yield  # a generator, so the walk fails on its first key, not when it is set up


def test_perfect_matchings_match_least_vertex_oracle(k4, pete, j5, monkeypatch):
    digons = build_graph([(0, 1), (0, 1), (0, 2), (1, 3), (2, 3), (2, 3)])
    # loops at 0 and 3 beside two digons: loops never enter a matching
    looped = Multigraph(4, [(0, 0), (0, 1), (0, 1), (1, 2), (2, 3), (2, 3), (3, 3), (0, 3)])
    # two disjoint K4s: the sweep's vertex order runs out of neighbours
    # after the first and restarts at the second
    two_k4 = disjoint_union(k4, k4)
    star = Multigraph(4, [(0, 1), (0, 2), (0, 3)])  # no perfect matching
    with open(os.path.join(DATA, "analyze_golden.g6")) as fh:
        golden = [parse_graph6(line.strip()) for line in fh if line.strip()]
    j11 = flower(11)
    graphs = [*load_corpus(12), *load_snarks18(), *golden, pete, j5, goldberg(5),
              relabelled(j5, 1), relabelled(goldberg(5), 2), j11, digons, looped, two_k4, star]
    for g in graphs:
        pms = enumerate_perfect_matchings(g)
        assert pms == _least_vertex_matchings(g)
        assert _matchings(g).masks == [sum(1 << e for e in pm) for pm in pms]
    assert len(enumerate_perfect_matchings(looped)) == 5
    assert len(enumerate_perfect_matchings(two_k4)) == 9
    assert len(enumerate_perfect_matchings(j11)) == 2048
    assert enumerate_perfect_matchings(star) == []
    # the length is the sweep's count, with no matching listed
    monkeypatch.setattr(_sweep, "_greatest_first", _make_no_key)
    for g, count in ((flower(25), 2 ** 25), (flower(33), 2 ** 33), (goldberg(13), 9_994_664)):
        pms = enumerate_perfect_matchings(g)
        assert len(pms) == count and pms


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


def test_matching_sweep_runs_once_per_graph():
    # the listing is the store, and its masks are the low halves of the
    # keys that its one memoised sweep made
    g = flower(5)  # a fresh graph object, so no earlier test swept it
    store = _matchings(g)
    assert store.made == [] and list(enumerate_perfect_matchings(g)) == _least_vertex_matchings(g)
    assert _matching_sweep(g) is store and len(store.made) == len(store) == 32
    assert store.masks == [key & ((1 << g.m) - 1) for key in store.made]


def test_listing_is_the_matching_store(monkeypatch):
    # the public listing, read first, is the store that tau and oddness read
    # after it: one public call and one sweep per graph (the sweep starts its
    # walk in ``_sweep``, the public call goes through ``solvers``)
    calls, sweeps = [], []
    original, walk = solvers.enumerate_perfect_matchings, _sweep._greatest_first
    monkeypatch.setattr(solvers, "enumerate_perfect_matchings",
                        lambda g: calls.append(g) or original(g))
    monkeypatch.setattr(_sweep, "_greatest_first", lambda *a: sweeps.append(a) or walk(*a))
    for g in (petersen(), _random_cubic(24, random.Random(7))):  # fresh graph objects
        listing = solvers.enumerate_perfect_matchings(g)
        assert listing is _matchings(g) and listing[0] == _least_vertex_matchings(g)[0]
        perfect_matching_index(g)
        assert oddness(g)[1] == frozenset(range(g.m)) - listing[listing.least()[0]]
        assert calls == [g] and len(sweeps) == 1 and _matchings(g) is listing
        calls.clear()
        sweeps.clear()


def test_empty_matching_store_is_held(monkeypatch):
    # three blocks at one centre vertex: deleting the centre leaves three odd
    # components, so there is no perfect matching; the empty store is falsy
    # but held, so oddness after tau builds no second one
    block = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (0, 4), (4, 3)]
    g = build_graph([(u + 5 * i, v + 5 * i) for i in range(3) for u, v in block]
                    + [(4 + 5 * i, 15) for i in range(3)])
    calls = []
    original = solvers.enumerate_perfect_matchings
    monkeypatch.setattr(solvers, "enumerate_perfect_matchings",
                        lambda g: calls.append(g) or original(g))
    assert perfect_matching_index(g).above_limit
    with pytest.raises(HypothesisViolated, match="no perfect matching"):
        oddness(g)
    assert calls == [g] and not _matchings(g) and _matchings(g) == []


def test_matching_readers_share_one_stream():
    # a listing read in turns with the store's least walk, which makes its
    # keys further ahead, still reads every matching once, in order
    with open(os.path.join(DATA, "analyze_golden.g6")) as fh:
        g = parse_graph6(fh.readline().strip())  # least 2-factor at matching 5 of 48
    listing = iter(enumerate_perfect_matchings(g))
    head = [next(listing), next(listing)]
    i = _matchings(g).least()[0]
    assert len(_matchings(g).made) == i + 1 > len(head)
    assert head + list(listing) == _least_vertex_matchings(g)


def test_tau_and_oddness_make_only_the_keys_they_walk(monkeypatch):
    # a Hamiltonian 2-factor ends the least walk, and the one matching
    # decoded is its witness; Petersen's walk makes all 6 keys
    decoded = []
    decode = _sweep._decoded  # read by the store's ``__getitem__``
    monkeypatch.setattr(_sweep, "_decoded", lambda key, m: decoded.append(key) or decode(key, m))
    for g, lazy in ((_random_cubic(24, random.Random(7)), True), (petersen(), False)):
        decoded.clear()
        assert perfect_matching_index(g).tau == (3 if lazy else 5)
        oddness(g)
        store = _matchings(g)
        i = store.least()[0]
        assert len(store.made) == (i + 1 if lazy else 6)
        assert (len(store.made) < len(store)) == lazy
        assert set(decoded) == {store.made[i]}


def test_spectrum_builds_no_matching_store(monkeypatch):
    calls = []
    original = solvers.enumerate_perfect_matchings

    def counting(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(solvers, "enumerate_perfect_matchings", counting)
    # fresh graph objects, whose store no earlier call can have filled
    k4 = build_graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    for g, stage in ((k4, "4m/3"), (flower(5), "4m/3"), (petersen(), "4m/3+1")):
        assert edge_weight_spectrum(g).stage == stage
    assert calls == []


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


def test_matching_store_counts_only_the_factors_it_needs(monkeypatch):
    # the least 2-factor is walked once: a Hamiltonian 2-factor ends the walk
    # before the last matching; Petersen has none, so its walk reads them
    # all, and the readers of the store after it walk nothing
    counted = []
    count = _sweep._Matchings._count
    monkeypatch.setattr(_sweep._Matchings, "_count",
                        lambda store, pm: counted.append(pm) or count(store, pm))
    rng = random.Random(7)
    for g, lazy in ((_random_cubic(24, rng), True), (petersen(), False)):
        counted.clear()
        store = _matchings(g)
        least = store.least()
        assert len(counted) == (least[0] + 1 if lazy else len(store.masks))
        assert (len(counted) < len(store.masks)) == lazy
        assert counted == store.masks[:len(counted)]
        walked = len(counted)
        oddness(g)
        perfect_matching_index(g)
        edge_colouring_3(g)
        assert len(counted) == walked and store.least() is least


def test_least_two_factor_is_read_by_tau_oddness_and_colouring(monkeypatch):
    # tau's tau-3 witness is the least 2-factor's matching and the edges at
    # even and odd places of its walks; tau after oddness walks no 2-factor
    # again (the store walks its 2-factors through ``_sweep``'s ``_walks``),
    # and on a snark the colouring is then refuted with no search
    walks, searches = [], []
    walk, search = _sweep._walks, solvers._label_search
    monkeypatch.setattr(_sweep, "_walks", lambda *a: walks.append(a) or walk(*a))
    monkeypatch.setattr(solvers, "_label_search",
                        lambda *a, **kw: searches.append(a) or search(*a, **kw))
    colourable = load_corpus(12)[12]
    for g in (petersen(), flower(5), *load_snarks18(), colourable):
        odd, factor = oddness(g)
        store = _matchings(g)
        i, (least_odd, _), least = store.least()
        assert (odd, factor) == (least_odd, frozenset(range(g.m)) - store[i])
        walks.clear()
        res = perfect_matching_index(g)
        assert walks == []
        if g is colourable:
            even = frozenset(edges[j] for edges, _ in least for j in range(0, len(edges), 2))
            assert res.tau == 3 and res.matchings == (store[i], even, factor - even)
        else:
            assert least_odd and res.tau in (4, 5)
            searches.clear()
            assert edge_colouring_3(g) is None and searches == []


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
    # nor does an edge beside a bridge, whatever the limit
    from test_graphs import _bridged_cubic

    for limit in (12, 10**6):
        assert perfect_matching_index(_bridged_cubic(), limit, node_limit=100) == TauResult(
            None, (), 0)
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
    settled = 0
    for g in graphs:
        length, circ = circumference(g)
        want = _dfs_circumference(g)
        assert length == want[0]
        ham = _hamiltonian_class(g)
        if ham is None:
            # the DFS answers, so the witness is the oracle's
            assert (length, circ) == want
        else:
            # the colour route answers with the first Hamiltonian class's
            # 2-factor, a circuit of g through every vertex
            settled += 1
            assert trace_circuit(g, circ.edges) == circ and len(circ.edges) == length == g.n
            assert circ.edge_set == ham
    assert 0 < settled < len(graphs)
    assert circumference(digons)[0] == 6
    assert circumference(looped)[0] == 3


def _hamiltonian_class(g):
    """The 2-factor left by the first colour class (0, 1, 2 in turn) of g's
    memoised 3-edge-colouring that is one circuit, as an edge set, or None
    (g is not cubic, has no colouring, or no class leaves one circuit)."""
    if any(d != 3 for d in g.degrees()) or (colours := solvers._colouring(g)) is None:
        return None
    for c in range(3):
        rest = frozenset(e for e in range(g.m) if colours[e] != c)
        if len(decompose_even_subgraph(g, rest)) == 1:
            return rest
    return None


def _colouring_nodes(g):
    """The labelling nodes of g's 3-edge-colouring search, run in full."""
    budget = _Budget()
    solvers._label_search(g, [{0, 1, 2}], budget, [1, 2, 4])
    return budget.nodes


def test_colour_route_spends_no_node(k4, prism, pete):
    # under a node limit the colouring search spends the call's budget
    # first; a Hamiltonian colour class then settles circumference before
    # any DFS node; a colourable graph with none (corpus graph 3, n = 8,
    # circumference 8) and the snarks still search
    hits = [g for g in load_bridgeless_corpus(12) if _hamiltonian_class(g) is not None]
    assert len(hits) == 96
    for g in (k4, prism, *hits):
        nodes = _colouring_nodes(g)
        assert circumference(g, node_limit=nodes)[0] == g.n
        with pytest.raises(NodeLimitExceeded, match="in labelling"):
            circumference(g, node_limit=nodes - 1)
    miss = load_corpus(12)[3]
    assert miss.n == 8 and edge_colouring_3(miss) is not None
    assert _hamiltonian_class(miss) is None and circumference(miss)[0] == 8
    for g in (miss, pete, *load_snarks18()):
        with pytest.raises(NodeLimitExceeded, match="in circumference"):
            circumference(g, node_limit=_colouring_nodes(g))


def test_circumference_n_iff_hamiltonian_two_factor():
    # a Hamiltonian circuit is exactly a 2-factor with one component
    rng = random.Random(2013)
    graphs = load_corpus(12) + [_random_cubic(n, rng) for n in (40, 44, 48, 52, 56)]
    for g in graphs:
        hamiltonian = _matchings(g).least()[1] == (0, 1)
        assert (circumference(g)[0] == g.n) == hamiltonian


def test_circumference_node_limit(j5):
    # J5's colouring refutation takes 44 labelling nodes and its DFS 34 more
    for limit, search in ((5, "labelling"), (44, "circumference"), (77, "circumference")):
        with pytest.raises(NodeLimitExceeded) as exc:
            circumference(j5, node_limit=limit)
        assert (exc.value.search, exc.value.nodes) == (search, limit + 1)
    assert circumference(j5, node_limit=78) == circumference(j5)


def test_public_calls_leave_no_cyclic_garbage(k4, pete, j5):
    # every search frees its tables by reference counting when it returns or
    # aborts, so nothing is left for the cyclic collector; the last calls,
    # on another graph, drop the one-graph memos of the graph before
    calls = [
        shortest_cycle_cover, edge_weight_spectrum, lambda g: list(enumerate_perfect_matchings(g)),
        perfect_matching_index, oddness, circumference, find_cdc, edge_colouring_3,
        lambda g: three_disjoint_paths(g, 0, 1), enumerate_circuits, find_petersen_colouring,
        cover_via_circumference, cover_via_oddness2, scc_cover_from_tau4,
        lambda g: shortest_cycle_cover(g, node_limit=1), lambda g: circumference(g, node_limit=1),
    ]
    gc.collect()
    gc.disable()
    try:
        for g in (k4, pete, j5, _random_cubic(24, random.Random(44))):
            for call in calls:
                try:
                    call(g)
                except GraphError:  # an abort, or a pipeline's hypothesis failing
                    pass
            h = CubicGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
            for call in (oddness, edge_colouring_3, shortest_cycle_cover):
                call(h)
            assert gc.collect() == 0, f"cyclic garbage after the calls on {g.n} vertices"
    finally:
        gc.enable()


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


def test_counted_store_refutes_colourings(monkeypatch, k4, prism):
    # a cubic graph is 3-edge-colourable iff some 2-factor is even, so once
    # oddness has found a snark's least 2-factor, with its odd circuits, the
    # colouring needs no search; a colourable graph, a snark whose store is
    # not held, and one whose store is held but has not walked still search
    calls = []
    original = solvers._label_search

    def counting(g, *args, **kwargs):
        calls.append(g)
        return original(g, *args, **kwargs)

    monkeypatch.setattr(solvers, "_label_search", counting)
    for g in (petersen(), flower(5), *load_snarks18()):
        assert oddness(g)[0] == 2
        assert edge_colouring_3(g) is None and calls == []
    for h in (k4, prism):
        oddness(h)
        assert edge_colouring_3(h) is not None and calls == [h]
        calls.clear()
    fresh, uncounted = flower(5), flower(7)
    oddness(flower(5))
    assert edge_colouring_3(fresh) is None and calls == [fresh]
    _matchings(uncounted).holders
    assert edge_colouring_3(uncounted) is None and calls == [fresh, uncounted]


def test_edge_colouring(k4, pete):
    colour = edge_colouring_3(k4)
    assert colour is not None
    for v in range(k4.n):
        assert sorted(colour[e] for e in k4.incident_edges[v]) == [1, 2, 3]
    assert edge_colouring_3(pete) is None
    g = CubicGraph(2, [(0, 1), (0, 1), (0, 1)])
    assert edge_colouring_3(g) is not None


def _labelling_records(monkeypatch):
    """The witness and node count of each labelling search on a fixed set of
    graphs, as the lines of ``labelling_golden.jsonl``: the 3-edge-colouring
    search, the Petersen colouring, tau and the 5-class CDC with a 2-factor
    class.  The budgets are read off every ``_label_search`` call."""
    budgets = []
    search = solvers._label_search

    def recording(g, stars, budget, *args, **kwargs):
        budgets.append(budget)
        return search(g, stars, budget, *args, **kwargs)

    monkeypatch.setattr(solvers, "_label_search", recording)
    monkeypatch.setattr(pcolour, "_label_search", recording)

    def nodes():
        spent = sum(b.nodes for b in budgets)
        budgets.clear()
        return spent

    graphs = [("petersen", petersen()), ("J5", flower(5)), ("J7", flower(7))]
    graphs += [(f"snarks18[{i}]", g) for i, g in enumerate(load_snarks18())]
    graphs += [(f"relabelled(J9, {s})", relabelled(flower(9), s)) for s in (1, 2, 3)]
    graphs += [(f"cubic_le12[{i}]", g) for i, g in enumerate(load_corpus(12)) if i % 12 == 0]
    for name, g in graphs:
        labels = search(g, [{0, 1, 2}], budget := _Budget(), [1, 2, 4])
        yield {"graph": name, "search": "colouring", "witness": labels, "nodes": budget.nodes}
        found = find_petersen_colouring(g)
        yield {"graph": name, "search": "petersen", "nodes": nodes(),
               "witness": None if found is None else list(found.assignment)}
        res = perfect_matching_index(g)
        budgets.clear()  # one budget over every k: its total is res.nodes
        yield {"graph": name, "search": "tau", "nodes": res.nodes,
               "witness": [res.tau, [sorted(pm) for pm in res.matchings]]}
        cdc = find_cdc(g, k=5, two_factor_class=True)
        yield {"graph": name, "search": "cdc5", "nodes": nodes(),
               "witness": None if cdc is None else [sorted(c) for c in cdc.classes]}


def test_labelling_searches_match_golden(monkeypatch):
    # every labelling search keeps its search tree: the same first witness
    # after the same number of nodes as when the golden file was written
    with open(os.path.join(DATA, "labelling_golden.jsonl"), encoding="ascii") as fh:
        want = [json.loads(line) for line in fh]
    assert list(_labelling_records(monkeypatch)) == want


def test_find_cdc_circuit_form(k4, pete, j5):
    cdc = find_cdc(k4)
    assert validate(cdc, k4).is_cdc
    # strong CDC through a 9-circuit of the Petersen graph
    _, circ = circumference(pete)
    cdc = find_cdc(pete, must_contain=[circ])
    assert cdc is not None and validate(cdc, pete).is_cdc
    assert circ in cdc.circuits
    # copies of a circuit take its transitions twice
    assert find_cdc(pete, must_contain=[circ] * 3) is None
    ham = trace_circuit(k4, [0, 2, 3, 5])  # 0-1-2-3
    assert find_cdc(k4, must_contain=[ham] * 3) is None
    # forced entries that are no circuit of g: three edges of a graph of
    # girth 5, and the two 4-circuits of the cube taken as one
    assert find_cdc(pete, must_contain=[Circuit((0, 1, 2), (0, 1, 2))]) is None
    cube = build_graph([(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
                        (0, 4), (1, 5), (2, 6), (3, 7)])
    assert find_cdc(cube, must_contain=[Circuit(tuple(range(8)), tuple(range(8)))]) is None
    # edge ids outside 0..m-1, where -1 is not the last edge
    for bad in (99, -1):
        walk = Circuit(tuple(bad if e == pete.m - 1 else e for e in circ.edges), circ.vertices)
        assert pete.m - 1 in circ.edges and find_cdc(pete, must_contain=[walk]) is None
    # two J7 blocks joined by a bridge, which no circuit passes: no choice
    # is tried (without the bridge test the search ran past 2,000,000 nodes)
    (u, v), rest = flower(7).edges[0], flower(7).edges[1:]
    block = [*rest, (u, 28), (28, v)]
    bridged = build_graph(block + [(a + 29, b + 29) for a, b in block] + [(28, 57)])
    assert find_cdc(bridged, node_limit=0) is None
    # every vertex of a CDC lies on three circuits that pairwise share an
    # edge; forcing two of them pins that edge from both
    for g in [pete, j5, *load_bridgeless_corpus(12)]:
        pair = next((c1, c2) for c1, c2 in combinations(find_cdc(g).circuits, 2)
                    if c1.edge_set & c2.edge_set)
        got = find_cdc(g, must_contain=pair)
        assert got is not None and validate(got, g).is_cdc
        rest = list(got.circuits)
        for c in pair:
            rest.remove(c)  # raises unless the CDC holds both


def _find_cdc_over_every_circuit(g, must_contain):
    """Oracle: a CDC through ``must_contain`` by the cover engine over every
    circuit of g, each edge covered to 2 less the times the forced circuits
    pass it."""
    space = _CircuitSpace(g)
    demand = [2] * g.m
    for c in must_contain:
        if tuple(sorted(c.edges)) not in space.elists:
            return None
        for e in c.edges:
            demand[e] -= 1
    if any(d < 0 for d in demand):
        return None
    found = next(_CoverEngine(g, space, demand, demand, _Budget()).covers(sum(demand)), None)
    if found is None:
        return None
    return CycleCover.of([trace_circuit(g, c.edges) for c in must_contain]
                         + [space.circuit(i) for i in found])


def _holds_cdc(g, cdc, must_contain):
    """Whether ``cdc`` is a CDC of g that holds every forced circuit."""
    rest = list(cdc.circuits)
    for c in must_contain:
        c = trace_circuit(g, c.edges)
        if c not in rest:
            return False
        rest.remove(c)
    return validate(cdc, g).is_cdc


def test_find_cdc_forced_circuits_match_every_circuit_oracle(pete):
    # the transition search finds a CDC exactly when the engine over every
    # circuit does, and its witness holds the forced circuits
    kinds = Counter()
    for g in [h for g0 in (*load_bridgeless_corpus(10), pete) for h in (g0, relabelled(g0, 1))]:
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
                assert (got is None) == (_find_cdc_over_every_circuit(g, must) is None)
                assert got is None or _holds_cdc(g, got, must)
                kinds[len(must), got is None] += 1
    assert all(kinds[size, found] for size in (1, 2) for found in (True, False))
    assert sum(kinds.values()) > 8000


def test_find_cdc_forced_longest_circuit_node_bound():
    # J7 through its longest circuit: the transition search tries 288 choices
    g = flower(7)
    _, longest = circumference(g)
    cdc = find_cdc(g, must_contain=[longest], node_limit=288)
    assert _holds_cdc(g, cdc, [longest])
    with pytest.raises(NodeLimitExceeded) as exc:
        find_cdc(g, must_contain=[longest], node_limit=287)
    assert (exc.value.search, exc.value.nodes) == ("transitions", 288)


def test_find_cdc_without_forced_circuits_on_snarks():
    # a search over every circuit did not finish J7 in 90 s; the transition
    # search takes at most 17,510 nodes on these
    for g0 in (flower(7), flower(9), flower(11), goldberg(5), goldberg(7)):
        for g in (g0, *(relabelled(g0, seed) for seed in (1, 2, 3))):
            assert validate(find_cdc(g, node_limit=50_000), g).is_cdc


def test_find_cdc_runs_no_cover_engine(monkeypatch, pete):
    def refuse(*args, **kwargs):
        raise AssertionError("the circuit-form search built a circuit space or an engine")

    cdc = find_cdc(pete)
    pair = next((c1, c2) for c1, c2 in combinations(cdc.circuits, 2) if c1.edge_set & c2.edge_set)
    monkeypatch.setattr(_engine, "_CircuitSpace", refuse)
    monkeypatch.setattr(_engine, "_CoverEngine", refuse)
    assert find_cdc(pete) == cdc
    _, longest = circumference(pete)
    assert _holds_cdc(pete, find_cdc(pete, must_contain=[longest]), [longest])
    assert _holds_cdc(pete, find_cdc(pete, must_contain=pair), pair)
    assert find_cdc(pete, must_contain=[longest, longest]) is None


def test_find_cdc_k5_two_factor(pete):
    # a 5-CDC with a 2-factor class would force tau <= 4: impossible for Petersen
    assert find_cdc(pete, k=5, two_factor_class=True) is None
    got = find_cdc(flower(5), k=5, two_factor_class=True)
    assert got is not None
    assert validate(got, flower(5)).is_cdc


def test_k_cdc_searches_at_most_m_classes(monkeypatch, k4, pete, j5):
    # a nonempty class has two edges or more, so at most m classes are
    # nonempty: with k > m the search runs over m classes, and empty classes
    # make up the rest, before a 2-factor class
    stars = []
    search = solvers._label_search
    monkeypatch.setattr(solvers, "_label_search",
                        lambda g, star_list, *a: stars.append(len(star_list)) or search(g, star_list, *a))
    for g in (k4, pete, j5):
        for tf in (False, True):
            base = find_cdc(g, k=g.m, two_factor_class=tf)
            assert (base is None) == (g is pete and tf)
            for k in (g.m + 1, g.m + 3, 60):
                found = find_cdc(g, k=k, two_factor_class=tf)
                if base is None:
                    assert found is None
                    continue
                assert found.k == k and validate(found, g).is_cdc
                head = base.classes[:-1] if tf else base.classes
                assert found.classes == head + (frozenset(),) * (k - g.m) + base.classes[len(head):]
            size = math.comb(g.m - 1, 2) if tf else math.comb(g.m, 3)
            assert stars[-4:] == [size] * 4


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
    over every circuit of g: the engine's route, which runs only with a cap
    of 3 or more."""
    per_edge, covers = _spectrum_over(_CircuitSpace(g), cap, length, _Budget())
    return length, covers, per_edge


def test_spectrum_matches_full_space_route(k4, pete):
    join = two_cut_join(pete, 0, k4, 0)
    for g in (*map(permutation_snark, _PERMS), join):
        spec = edge_weight_spectrum(g)
        length = spec.optimal_length
        assert (length, spec.n_optimal_covers, spec.per_edge) == _full_space(g, length)
        assert _full_space(g, length - 1)[1] == 0
    assert edge_weight_spectrum(join).optimal_length == 4 * join.m // 3 + 1


@pytest.mark.slow
def test_spectrum_at_excess_two_matches_full_space_route(pete):
    # the levels give the engine's covers at 4m/3 + 2 (about 12 s over the
    # full circuit space)
    g = two_cut_join(pete, 0, pete, 0)
    spec = edge_weight_spectrum(g)
    assert (spec.optimal_length, spec.n_optimal_covers, spec.per_edge) == _full_space(g, 42)
    assert spec.n_optimal_covers == 272


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
    # J5's covers go through several 2-factors, and one search over all of
    # them spends one budget: a node less than its total aborts it
    spec = edge_weight_spectrum(j5)
    assert edge_weight_spectrum(j5, node_limit=spec.nodes) == spec
    with pytest.raises(NodeLimitExceeded) as exc:
        edge_weight_spectrum(j5, node_limit=spec.nodes - 1)
    # the abort reports the whole budget spent, not the last search's count
    assert exc.value.nodes == spec.nodes


def _deepened(limit):
    """The engine's entry: the cap-3 deepening of P+P below its cap-2
    optimum, with the nodes it spent."""
    budget = _Budget(limit)
    length, found, _ = _deepening(two_cut_join(petersen(), 0, petersen(), 0), 3, 43, budget)
    return length, found, budget.nodes


def _least_limit(call):
    """The least node limit under which ``call`` returns, by bisection."""
    def returns(limit):
        try:
            call(limit)
        except NodeLimitExceeded:
            return False
        return True

    lo, hi = 0, 1
    while not returns(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if returns(mid) else (mid, hi)
    return hi


@pytest.mark.parametrize("search, call, reported", [
    ("transitions", lambda limit: shortest_cycle_cover(petersen(), node_limit=limit),
     lambda res: res.nodes),
    ("transitions", lambda limit: edge_weight_spectrum(flower(5), node_limit=limit),
     lambda res: res.nodes),
    ("transitions", lambda limit: find_cdc(flower(5), node_limit=limit), None),
    ("labelling", lambda limit: find_cdc(petersen(), k=5, node_limit=limit), None),
    ("labelling", lambda limit: perfect_matching_index(petersen(), node_limit=limit),
     lambda res: res.nodes),
    ("labelling", lambda limit: find_petersen_colouring(flower(5), node_limit=limit), None),
    ("circumference", lambda limit: circumference(flower(5), node_limit=limit), None),
    ("cover engine", _deepened, lambda res: res[2]),
    ("transitions", lambda limit: cover_via_circumference(flower(5), node_limit=limit), None),
], ids=["scc", "spectrum", "circuit cdc", "k-class cdc", "tau", "petersen colouring",
        "circumference", "deepening", "circumference construction"])
def test_node_limit_of_the_nodes_spent_returns_the_unlimited_result(search, call, reported):
    # every search of a call spends one budget: a limit of the nodes it
    # spent returns the unlimited result, and one node less aborts it with
    # the search's name and that count (found by bisection when the result
    # reports none)
    result = call(None)
    spent = _least_limit(call) if reported is None else reported(result)
    assert call(spent) == result
    with pytest.raises(NodeLimitExceeded) as exc:
        call(spent - 1)
    assert (exc.value.search, exc.value.nodes) == (search, spent)


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


@pytest.mark.parametrize("s, t", [(0, 99), (-1, 3), (10, 0)])
def test_three_disjoint_paths_refuses_endpoints_that_are_no_vertices(pete, s, t):
    # a bad endpoint is no proven negative (HypothesisViolated)
    with pytest.raises(ValueError, match="must be vertices 0..9"):
        three_disjoint_paths(pete, s, t)


def _least_three_paths(mg, s, t):
    """The least total length of three pairwise edge-disjoint simple s-t
    paths of ``mg``, over every such triple, or None when there is none."""
    paths = []

    def extend(v, seen, edges):
        if v == t:
            paths.append(frozenset(edges))
            return
        for e in mg.incident_edges[v]:
            w = mg.other_end(e, v)
            if w not in seen:
                extend(w, seen | {w}, edges + [e])

    extend(s, {s}, [])
    return min((len(a) + len(b) + len(c) for a, b, c in combinations(paths, 3)
                if not a & b and not a & c and not b & c), default=None)


def _random_multigraphs(seed, count):
    """Random loopless multigraphs of 3-7 vertices with n to 2n edges."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(3, 7)
        yield Multigraph(n, [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(n, 2 * n))])


def test_three_disjoint_paths_against_every_triple_of_paths():
    # successive shortest paths take a residual edge back (cancel the flow of
    # an earlier path) where an earlier shortest path blocks the optimum, as
    # the third path from 3 to 5 in the first graph does, and a few of the
    # random cases; the paths returned must be three edge-disjoint walks from
    # s to t whose total length d is the least
    first = Multigraph(7, [(0, 4), (1, 0), (0, 4), (5, 2), (1, 3), (1, 4), (4, 2), (6, 3),
                           (2, 1), (4, 5), (0, 5), (4, 6), (6, 3), (6, 0)])
    cases = [(first, 3, 5)]
    cases += [(mg, s, t) for mg in _random_multigraphs(5, 100)
              for s in range(mg.n) for t in range(mg.n) if s != t]
    for mg, s, t in cases:
        want = _least_three_paths(mg, s, t)
        if want is None:
            with pytest.raises(HypothesisViolated, match="disjoint paths exist"):
                three_disjoint_paths(mg, s, t)
            continue
        paths, d = three_disjoint_paths(mg, s, t)
        assert d == sum(map(len, paths)) == want
        used = [e for p in paths for e in p]
        assert len(set(used)) == len(used)
        for path in paths:
            v = s
            for e in path:
                assert v in mg.edges[e]
                v = mg.other_end(e, v)
            assert v == t

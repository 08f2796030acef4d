"""Independent brute-force oracle for the shortest cycle cover.

Written before the solver and kept as its ground truth: enumerates circuits
by plain path search and covers by iterative deepening over circuit multisets
of total length at most 2m, with no weight cap and none of the solver's
structure (no vertex-weight bound, no 2-factor guidance).
"""

import pytest

from conftest import load_bridgeless_corpus
from substrate import disjoint_union
from cyclecover.solvers import edge_weight_spectrum, shortest_cycle_cover


def oracle_circuits(g):
    """All simple circuits as edge frozensets, by naive path extension."""
    adj = [[] for _ in range(g.n)]
    for e, (u, v) in enumerate(g.edges):
        adj[u].append((v, e))
        adj[v].append((u, e))
    found = set()

    def extend(start, cur, verts, edges):
        for w, e in adj[cur]:
            if e in edges:
                continue
            if w == start:
                if len(edges) + 1 >= 2:
                    found.add(frozenset(edges | {e}))
                continue
            if w in verts or w < start:
                continue
            extend(start, w, verts | {w}, edges | {e})

    for s in range(g.n):
        extend(s, s, {s}, frozenset())
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def oracle_scc(g):
    """Minimum cover length by iterative deepening; no cap, no pruning bounds
    beyond removal-minimality (every circuit covers a new edge)."""
    circuits = oracle_circuits(g)
    masks = []
    lens = []
    for c in circuits:
        mask = 0
        for e in c:
            mask |= 1 << e
        masks.append(mask)
        lens.append(len(c))
    full = (1 << g.m) - 1

    def exists(limit):
        def rec(start, covered, remaining):
            if covered == full:
                return True
            for i in range(start, len(masks)):
                if lens[i] > remaining:
                    return False  # circuits are sorted by length
                if masks[i] & ~covered == 0:
                    continue
                if rec(i + 1, covered | masks[i], remaining - lens[i]):
                    return True
            return False

        return rec(0, 0, limit)

    for limit in range(g.m, 2 * g.m + 1):
        if exists(limit):
            return limit
    raise AssertionError("no cover within the trivial bound")


def test_oracle_agrees_on_small_named(k4, prism, k33, pete):
    assert oracle_scc(k4) == 8
    assert oracle_scc(prism) == 12
    assert oracle_scc(k33) == 12
    assert oracle_scc(pete) == 21


@pytest.mark.parametrize("max_n", [8])
def test_oracle_equivalence_small(max_n):
    for g in load_bridgeless_corpus(max_n):
        assert shortest_cycle_cover(g).length == oracle_scc(g)


def oracle_spectrum(g, cap=2):
    """(optimal length, number of optimal covers, per-edge weight sets) by
    listing every circuit multiset with all edge weights at most ``cap``,
    one total length at a time from m upwards; no pruning beyond length and
    the cap."""
    circuits = oracle_circuits(g)
    weight = [0] * g.m
    for length in range(g.m, cap * g.m + 1):
        covers = []

        def rec(start, left):
            if left == 0:
                if all(weight):
                    covers.append(tuple(weight))
                return
            for i in range(start, len(circuits)):
                c = circuits[i]
                if len(c) > left:
                    return  # circuits are sorted by length
                if any(weight[e] == cap for e in c):
                    continue
                for e in c:
                    weight[e] += 1
                rec(i, left - len(c))  # i again: a circuit may repeat
                for e in c:
                    weight[e] -= 1

        rec(0, length)
        if covers:
            return length, len(covers), tuple(frozenset(w[e] for w in covers) for e in range(g.m))
    raise AssertionError("no cover within the trivial bound")


def test_spectrum_matches_oracle(pete):
    # the smaller graphs solve at 4m/3 and Petersen at 4m/3 + 1, so both levels run
    excess = []
    for g in (*load_bridgeless_corpus(8), pete):
        spec = edge_weight_spectrum(g)
        assert (spec.optimal_length, spec.n_optimal_covers, spec.per_edge) == oracle_spectrum(g)
        excess.append(spec.optimal_length - 4 * g.m // 3)
    assert excess == [0] * (len(excess) - 1) + [1]


def test_disconnected_graphs_match_oracle(k4, prism, k33):
    for g in (disjoint_union(k4, k4), disjoint_union(k4, prism), disjoint_union(k33, k4)):
        spec = edge_weight_spectrum(g)
        assert shortest_cycle_cover(g).length == oracle_scc(g)
        assert (spec.optimal_length, spec.n_optimal_covers, spec.per_edge) == oracle_spectrum(g)

"""Canonical forms and exhaustive small-graph enumeration for the tests.

``enumerate_cubic_graphs`` generated the committed corpus
``tests/data/cubic_le12.g6``, and ``test_families`` regenerates and compares
it.  Tests import this module as they import ``conftest``.
"""

import itertools

from cyclecover.errors import GraphError
from cyclecover.graphs import CubicGraph, Multigraph


def _vertex_invariant(g: Multigraph):
    """BFS layer-size profile per vertex; isomorphism-invariant."""
    out = []
    for s in range(g.n):
        dist = [-1] * g.n
        dist[s] = 0
        frontier = [s]
        layers = []
        while frontier:
            layers.append(len(frontier))
            nxt = []
            for v in frontier:
                for e in g.incident_edges[v]:
                    w = g.other_end(e, v)
                    if dist[w] == -1:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
        out.append(tuple(layers))
    return out


def canonical_form(g: Multigraph) -> tuple:
    """Deterministic isomorphism certificate (branch-and-bound row code).

    Two graphs get the same form iff they are isomorphic (as multigraphs,
    loops excluded).  Intended for the small graphs of the test corpora, not
    for large instances: the BFS layer profile does not split symmetric
    graphs, and on the two 40-vertex Goldberg ring variants the search did
    not finish in 120 s.
    """
    if g.loops:
        raise GraphError("canonical form defined for loopless graphs")
    n = g.n
    cnt = [[0] * n for _ in range(n)]
    for u, v in g.edges:
        cnt[u][v] += 1
        cnt[v][u] += 1
    inv = _vertex_invariant(g)
    start_inv = min(inv)
    starts = [v for v in range(n) if inv[v] == start_inv]

    best = [None]

    def dfs(placed, placed_set, code):
        j = len(placed)
        if j == n:
            code = tuple(code)
            if best[0] is None or code < best[0]:
                best[0] = code
            return
        rows = []
        for v in range(n):
            if v in placed_set:
                continue
            rows.append((tuple(cnt[v][p] for p in placed), v))
        rows.sort()
        min_row = rows[0][0]
        for row, v in rows:
            if row != min_row:
                break  # only minimal rows can extend a minimal code
            new_code = code + list(row)
            if best[0] is not None:
                prefix = best[0][:len(new_code)]
                if tuple(new_code) > prefix:
                    continue
            placed.append(v)
            placed_set.add(v)
            dfs(placed, placed_set, new_code)
            placed.pop()
            placed_set.remove(v)

    for s in starts:
        dfs([s], {s}, [])
    return (n, g.m) + best[0]


def isomorphic(g1: Multigraph, g2: Multigraph) -> bool:
    return canonical_form(g1) == canonical_form(g2)


def enumerate_cubic_graphs(n: int):
    """All connected simple cubic graphs on n vertices, one per isomorphism
    class.

    Exhaustive generation with isomorph rejection; meant for the n <= 12
    corpora that the property suites run over.  Result is sorted by canonical
    form, so the order is stable.
    """
    if n % 2 or n < 4:
        return []
    found = {}
    adj = [[0] * n for _ in range(n)]
    deg = [0] * n

    def emit():
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if adj[i][j]:
                    edges.append((i, j))
        g = CubicGraph(n, edges)
        key = canonical_form(g)
        if key not in found:
            found[key] = g

    def rec(next_new):
        u = -1
        for v in range(next_new):
            if deg[v] < 3:
                u = v
                break
        if u == -1:
            if next_new == n:
                emit()
            return
        need = 3 - deg[u]
        existing = [w for w in range(u + 1, next_new) if deg[w] < 3 and not adj[u][w]]
        fresh = list(range(next_new, min(n, next_new + need)))
        pool = existing + fresh
        for combo in itertools.combinations(pool, need):
            fresh_used = [w for w in combo if w >= next_new]
            # fresh vertices must be taken in order, no gaps
            if fresh_used != fresh[:len(fresh_used)]:
                continue
            for w in combo:
                adj[u][w] = adj[w][u] = 1
                deg[u] += 1
                deg[w] += 1
            rec(next_new + len(fresh_used))
            for w in combo:
                adj[u][w] = adj[w][u] = 0
                deg[u] -= 1
                deg[w] -= 1

    # vertex 0 always attaches to fresh vertices 1,2,3
    rec(1)
    return [found[k] for k in sorted(found)]

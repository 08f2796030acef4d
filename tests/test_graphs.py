import itertools
import random
from collections import Counter

import pytest

from conftest import load_corpus, load_snarks18
from substrate import disjoint_union
from cyclecover import build_graph, petersen
from cyclecover.constructions import cover_via_oddness2
from cyclecover.covers import decompose_even_subgraph
from cyclecover.errors import GraphError, HypothesisViolated
from cyclecover.graphs import (
    CubicGraph,
    Multigraph,
    bridges,
    contract_two_factor,
    cyclic_connectivity_at_least,
    girth,
    is_bridgeless,
    is_connected,
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
    with pytest.raises(GraphError, match="vertex 0 has degree 4"):
        build_graph([(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4), (1, 3), (2, 4)])


def test_build_rejects_loop():
    with pytest.raises(GraphError, match="loop at vertex 0"):
        build_graph([(0, 0), (0, 1), (1, 2), (1, 2), (2, 0)])


def test_parallel_edges_flagged():
    g = build_graph([(0, 1), (0, 1), (0, 1)])
    assert g.has_parallel_edges
    assert (g.n, g.m) == (2, 3)


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
    with pytest.raises(GraphError, match="implemented for k <= 4 only"):
        cyclic_connectivity_at_least(pete, 5)


def test_two_cut_join_and_connectivity(k4):
    joined = two_cut_join(k4, 0, k4, 0)
    assert (joined.n, joined.m) == (8, 12)
    assert isinstance(joined, CubicGraph)
    assert not cyclic_connectivity_at_least(joined, 3)


def connected_components(g: Multigraph):
    """Vertex sets of the connected components, sorted by least vertex."""
    seen = [False] * g.n
    comps = []
    for start in range(g.n):
        if seen[start]:
            continue
        comp = []
        stack = [start]
        seen[start] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for e in g.incident_edges[v]:
                w = g.other_end(e, v)
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def _scan_cyclic_connectivity(g, k):
    """Oracle: try every edge cut of size 0..k-1 and count the components of
    the rest that hold a circuit (at least as many edges as vertices)."""
    for size in range(k):
        for cut in itertools.combinations(range(g.m), size):
            rest = Multigraph(g.n, [uv for e, uv in enumerate(g.edges) if e not in cut])
            comp = {v: i for i, vs in enumerate(connected_components(rest)) for v in vs}
            edges = Counter(comp[u] for u, _ in rest.edges)
            verts = Counter(comp.values())
            if sum(edges[c] >= verts[c] for c in verts) >= 2:
                return False
    return True


def _adjacency(g):
    return [[(e, g.other_end(e, v)) for e in g.incident_edges[v]] for v in range(g.n)]


def _lowpoint_pass(adj, x, cut):
    """One iterative lowpoint DFS of the graph minus the edges in ``cut``.

    Returns the DFS roots, one per component, and (edge, root, subtree sum)
    for each bridge, where the subtree is the side of the bridge away from
    the root.  The sums are of ``x``, which the pass turns in place into
    subtree sums, so ``x[root]`` ends as the sum over the root's component.
    """
    n = len(adj)
    disc = [0] * n
    low = [0] * n
    timer = 0
    roots = []
    found = []
    for root in range(n):
        if disc[root]:
            continue
        roots.append(root)
        timer += 1
        disc[root] = low[root] = timer
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            v, in_edge, it = stack[-1]
            for e, w in it:
                if e == in_edge or e in cut:
                    continue
                if not disc[w]:
                    timer += 1
                    disc[w] = low[w] = timer
                    stack.append((w, e, iter(adj[w])))
                    break
                if disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    x[p] += x[v]
                    if low[v] < low[p]:
                        low[p] = low[v]
                    if low[v] > disc[p]:
                        found.append((in_edge, root, x[v]))
    return roots, found


def _lowpoint_bridges(g):
    _, found = _lowpoint_pass(_adjacency(g), [0] * g.n, ())
    return sorted(e for e, _, _ in found)


def _separates_circuits(g, adj, excess, cut, last_edge=True):
    """Whether G - cut, or (with ``last_edge``) G - cut - c for a bridge
    c > max(cut), has two components that contain circuits.

    A connected vertex set with b edges leaving it contains a circuit iff
    its sum of (degree - 2) is at least b.  The side of a bridge has b = 1,
    and so has the rest of its component.
    """
    x = excess[:]
    for e in cut:
        u, v = g.edges[e]
        x[u] -= 1
        x[v] -= 1
    roots, found = _lowpoint_pass(adj, x, cut)
    cyclic = sum(x[r] >= 0 for r in roots)
    if cyclic >= 2:
        return True
    lo = cut[-1] if cut else -1
    for c, r, a in found:
        if last_edge and c > lo and cyclic - (x[r] >= 0) + (a >= 1) + (x[r] - a >= 1) >= 2:
            return True
    return False


def _pair_and_bridge_connectivity(g, k):
    """Second oracle, by lowpoint DFS passes.  If S is a minimal cut that
    separates two circuits, every edge c of S is a bridge of G - (S - {c}).
    So for every edge set T of at most k - 2 edges the bridges c > max(T) of
    G - T are tried as the last edge of S = T + {c}, and the cut T itself is
    tested on the way.  At k = 1 only the empty cut is tested."""
    adj = _adjacency(g)
    excess = [len(lst) - 2 for lst in adj]
    if k == 1:
        return not _separates_circuits(g, adj, excess, (), last_edge=False)
    for size in range(k - 1):
        for cut in itertools.combinations(range(g.m), size):
            if _separates_circuits(g, adj, excess, cut):
                return False
    return True


_K4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
_PRISM = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]


def _connectivity_cases():
    cases = [(f"corpus-{i}", g) for i, g in enumerate(load_corpus(12))]
    k4 = build_graph(_K4)
    cases += [
        # disconnected: the empty cut already separates two circuits
        ("2K4", disjoint_union(k4, k4)),
        ("K4+prism", disjoint_union(k4, build_graph(_PRISM))),
        # digons at both ends of a 4-circuit
        ("digons", build_graph([(0, 1), (0, 1), (0, 2), (1, 3), (2, 3), (2, 3)])),
        # two triangles that each hold a digon, so one edge leaves each
        ("digon triangles", build_graph([(0, 1), (0, 1), (0, 2), (1, 2), (2, 5),
                                         (3, 4), (3, 4), (3, 5), (4, 5)])),
        ("P+P", two_cut_join(petersen(), 0, petersen(), 0)),
        ("Petersen 3-cut", _three_cut_join(petersen())),
    ]
    return cases


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_cyclic_connectivity_matches_exhaustive_scan(k):
    cases = _connectivity_cases()
    assert any(g.has_parallel_edges for _, g in cases)
    for name, g in cases:
        assert cyclic_connectivity_at_least(g, k) is _scan_cyclic_connectivity(g, k), name


def _pairing_edges(n, rng):
    """A random loopless cubic multigraph on n vertices: pairing model,
    rejecting loops."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        pairs = [tuple(sorted(points[i:i + 2])) for i in range(0, 3 * n, 2)]
        if all(u != v for u, v in pairs):
            return pairs


def _subdivided(edges, offset):
    """The edges shifted by ``offset`` with the first one subdivided by a new
    vertex, returned with that vertex (the largest)."""
    n = max(max(uv) for uv in edges) + 1
    (a, b), rest = edges[0], edges[1:]
    out = [(u + offset, v + offset) for u, v in rest]
    out += [(a + offset, n + offset), (n + offset, b + offset)]
    return out, n + offset


def _random_multigraphs(count, seed):
    """Loopless cubic multigraphs with n 2-22: plain pairing-model graphs,
    disjoint unions of two, and two joined by a bridge between subdivided
    edges."""
    rng = random.Random(seed)
    graphs = []
    for i in range(count):
        kind = i % 4
        if kind == 1:
            n1, n2 = rng.choice(range(2, 12, 2)), rng.choice(range(2, 12, 2))
            e1, e2 = _pairing_edges(n1, rng), _pairing_edges(n2, rng)
            graphs.append(build_graph(e1 + [(u + n1, v + n1) for u, v in e2]))
        elif kind == 2:
            n1, n2 = rng.choice(range(2, 10, 2)), rng.choice(range(2, 10, 2))
            e1, s1 = _subdivided(_pairing_edges(n1, rng), 0)
            e2, s2 = _subdivided(_pairing_edges(n2, rng), n1 + 1)
            graphs.append(build_graph(e1 + e2 + [(s1, s2)]))
        else:
            graphs.append(build_graph(_pairing_edges(rng.choice(range(2, 24, 2)), rng)))
    return graphs


def _triangle_free(n, rng):
    """A random simple triangle-free bridgeless connected cubic graph."""
    while True:
        pairs = _pairing_edges(n, rng)
        near = [set() for _ in range(n)]
        for u, v in pairs:
            near[u].add(v)
            near[v].add(u)
        if len(set(pairs)) < len(pairs) or any(near[u] & near[v] for u, v in pairs):
            continue
        g = build_graph(pairs)
        if is_connected(g) and not _lowpoint_bridges(g):
            return g


def _three_cut_join(g1, g2=None):
    """G1 - x and G2 - y for their vertices x = y = 0, with the three
    neighbours of x joined to those of y: the three joining edges form a
    cut whose sides both hold circuits."""
    g2 = g1 if g2 is None else g2
    halves, ends = [], []
    shift = -1
    for g in (g1, g2):
        halves += [(u + shift, v + shift) for u, v in g.edges if 0 not in (u, v)]
        ends.append([g.other_end(e, 0) + shift for e in g.incident_edges[0]])
        shift += g.n - 1
    return build_graph(halves + list(zip(*ends)))


def _oracle_cases():
    rng = random.Random(1992)
    tri_free = [_triangle_free(n, rng) for n in (24, 26, 28, 30, 32) for _ in range(7)]
    joined = [_three_cut_join(_triangle_free(n, rng), _triangle_free(n, rng))
              for n in (12, 14, 16, 18, 20)]
    return [*tri_free, *joined, *load_snarks18(), *_random_multigraphs(200, 2011)]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_cyclic_connectivity_matches_pair_and_bridge_search(k):
    graphs = _oracle_cases()
    answers = Counter()
    for i, g in enumerate(graphs):
        answer = cyclic_connectivity_at_least(g, k)
        assert answer is _pair_and_bridge_connectivity(g, k), i
        answers[answer] += 1
    assert answers[True] and answers[False]


def test_bridges_match_lowpoint_bridges():
    multigraphs = _random_multigraphs(200, 2011)
    assert any(not is_connected(g) for g in multigraphs)
    assert any(_lowpoint_bridges(g) for g in multigraphs)
    for g in multigraphs:
        assert bridges(g) == _lowpoint_bridges(g)
        assert is_connected(g) is (len(connected_components(g)) <= 1)


def test_bridges_of_contracted_two_factors():
    from cyclecover.solvers import enumerate_perfect_matchings

    contracted = []
    for g in [_bridged_cubic(), *load_corpus(10)]:
        for pm in enumerate_perfect_matchings(g):
            contracted.append(contract_two_factor(g, frozenset(range(g.m)) - pm)[0])
    assert any(h.loops and bridges(h) for h in contracted)
    for h in contracted:
        assert bridges(h) == _lowpoint_bridges(h)


def test_nontrivial_three_cut():
    # the only small cyclic cut is the 3-edge cut between the two halves
    g = _three_cut_join(petersen())
    assert girth(g) == 5
    assert cyclic_connectivity_at_least(g, 3)
    assert not cyclic_connectivity_at_least(g, 4)
    with pytest.raises(HypothesisViolated, match="not cyclically 4-edge-connected"):
        cover_via_oddness2(g)


def test_cyclic_connectivity_large_prism():
    # iterative and polynomial: no recursion limit and no node budget
    n = 200
    ring = [(i, (i + 1) % n) for i in range(n)]
    g = build_graph(ring + [(u + n, v + n) for u, v in ring] + [(i, i + n) for i in range(n)])
    assert cyclic_connectivity_at_least(g, 4)
    assert bridges(g) == []


def test_two_cut_join_rejects_bridge():
    g = _bridged_cubic()
    bridge = bridges(g)[0]
    with pytest.raises(GraphError, match=f"edge {bridge} is a bridge of the first graph"):
        two_cut_join(g, bridge, g, bridge)


@pytest.mark.parametrize("ids", [[-1, *range(14)], [99, *range(1, 15)]])
def test_suppress_rejects_ids_outside_the_graph(pete, ids):
    # -1 was read as edge 14, and 99 raised a bare IndexError
    with pytest.raises(ValueError, match=f"edge set names {ids[0]}, which is not an edge"):
        suppress_degree_two(pete, ids)


@pytest.mark.parametrize("e", [-1, 99])
def test_two_cut_join_rejects_edges_outside_the_graph(e):
    # -1 was read as edge 14 and joined Petersen into a degree-4 vertex, and
    # 99 raised a bare IndexError
    with pytest.raises(GraphError, match=f"edge {e} is not an edge of the first graph"):
        two_cut_join(petersen(), e, petersen(), 0)
    with pytest.raises(GraphError, match=f"edge {e} is not an edge of the second graph"):
        two_cut_join(petersen(), 0, petersen(), e)


def test_suppress_path():
    # path of degree-2 vertices between two degree-3 vertices becomes one edge
    g = Multigraph(8, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (5, 6), (6, 7),
                       (7, 1), (7, 2), (1, 2)])
    reduced, rmap = suppress_degree_two(g, range(g.m))
    assert reduced.n == 4
    long_paths = [p for p in rmap.edge_path if len(p) > 1]
    assert len(long_paths) == 1
    assert len(long_paths[0]) == 5  # edges 3-4-5-6-7 collapse to one


def test_suppress_all_degree_two():
    g = Multigraph(6, [(i, (i + 1) % 6) for i in range(6)])
    with pytest.raises(GraphError, match="graph is a disjoint union of circuits"):
        suppress_degree_two(g, range(g.m))


def test_suppress_circuit_beside_a_reducible_component(k4):
    # K4 on 0-3 and a hexagon on 4-9: the hexagon's edges lie on no chain
    hexagon = [(4 + i, 4 + (i + 1) % 6) for i in range(6)]
    g = Multigraph(10, list(k4.edges) + hexagon)
    with pytest.raises(GraphError, match="component containing vertex 4 is a circuit"):
        suppress_degree_two(g, range(g.m))
    reduced, _ = suppress_degree_two(g, range(k4.m))
    assert reduced.edges == k4.edges


def _check_direct_map(g, kept):
    """The reduction of the subgraph spanned by ``kept`` maps straight back
    to g: its paths partition the kept edges and run through subgraph
    degree-2 vertices, and a lifted CDC double covers exactly the kept edges."""
    from cyclecover.covers import lift_cover
    from cyclecover.solvers import find_cdc

    reduced, rmap = suppress_degree_two(g, kept)
    assert rmap.original is g
    deg = [0] * g.n
    for e in kept:
        for v in g.edges[e]:
            deg[v] += 1
    assert sorted(e for path in rmap.edge_path for e in path) == sorted(kept)
    branch = [v for v in range(g.n) if deg[v] == 3]
    for (a, b), path in zip(reduced.edges, rmap.edge_path):
        cur = branch[a]
        for e in path[:-1]:
            cur = g.other_end(e, cur)
            assert deg[cur] == 2
        assert g.other_end(path[-1], cur) == branch[b]
    weight = lift_cover(find_cdc(reduced), rmap).edge_weight(g.m)
    assert weight == [2 if e in kept else 0 for e in range(g.m)]
    return reduced


def test_suppress_petersen_minus_chords(pete):
    # delete the chords of a 9-circuit: the reduction has at most 4 vertices
    from cyclecover.solvers import circumference

    length, circ = circumference(pete)
    assert length == 9
    on_c = set(circ.vertices)
    chords = [e for e in range(pete.m) if e not in circ.edge_set
              and pete.edges[e][0] in on_c and pete.edges[e][1] in on_c]
    keep = [e for e in range(pete.m) if e not in chords]
    assert _check_direct_map(pete, keep).n <= 4


def test_suppress_oddness2_link_graph(j5):
    # J5's two 2-factor circuits and the three edges that link them
    from cyclecover.constructions import cover_via_oddness2

    cert = cover_via_oddness2(j5).certificate
    kept = set(cert["two_factor"]) | set(cert["links"])
    assert len(kept) < j5.m
    assert _check_direct_map(j5, sorted(kept)).n == 6


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
    with pytest.raises(GraphError, match="edge set is not a spanning 2-regular subgraph"):
        contract_two_factor(pete, frozenset(range(6)))
    with pytest.raises(GraphError, match="edge set is not a spanning 2-regular subgraph"):
        contract_two_factor(pete, {99})


def test_girth_parallel():
    g = build_graph([(0, 1), (0, 1), (0, 1)])
    assert girth(g) == 2


def _girth_by_edge(g):
    """Oracle: one BFS per edge uv for a shortest u-v path avoiding it."""
    if g.loops:
        return 1
    best = None
    for e, (u, v) in enumerate(g.edges):
        dist = {u: 0}
        frontier = [u]
        found = None
        while frontier and found is None:
            nxt = []
            for x in frontier:
                for f in g.incident_edges[x]:
                    if f == e:
                        continue
                    y = g.other_end(f, x)
                    if y not in dist:
                        dist[y] = dist[x] + 1
                        if y == v:
                            found = dist[y]
                            break
                        nxt.append(y)
                if found is not None:
                    break
            frontier = nxt
        if found is not None and (best is None or found + 1 < best):
            best = found + 1
    return 0 if best is None else best


def test_girth_matches_per_edge_oracle():
    from cyclecover import flower, goldberg

    rng = random.Random(1985)
    # the flower snarks J5-J21, the Goldberg snarks G5-G9 and the prisms
    # C_k x K2 (girth 3 at k = 3, else 4) beside the corpus
    prisms = [build_graph([(i, (i + 1) % k) for i in range(k)]
                          + [(k + i, k + (i + 1) % k) for i in range(k)]
                          + [(i, k + i) for i in range(k)]) for k in range(3, 13)]
    graphs = [*load_corpus(12), *load_snarks18(), petersen(), *map(flower, range(5, 22, 2)),
              *map(goldberg, (5, 7, 9)), *prisms]
    for i in range(300):
        # loops, parallel edges, isolated vertices and forests; every other
        # graph simple
        n = rng.randrange(1, 13)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(2 * n))]
        if i % 2:
            edges = sorted({(min(e), max(e)) for e in edges if e[0] != e[1]})
        graphs.append(Multigraph(n, edges))
    values = Counter()
    for g in graphs:
        values[girth(g)] += 1
        assert girth(g) == _girth_by_edge(g)
    assert {0, 1, 2, 3, 4, 5, 6} <= set(values)

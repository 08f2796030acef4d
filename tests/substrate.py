"""Canonical forms, exhaustive small-graph enumeration and reference
constructions for the tests.

``enumerate_cubic_graphs`` generated the committed corpus
``tests/data/cubic_le12.g6``, and ``test_families`` regenerates and compares
it.  ``truncation`` builds T_X as a graph, the reference for the join
tables that the solvers build straight from g, and ``join_search`` is the
reference for the transition search over them; ``transition_covers`` is
the earlier per-2-factor route to the first cover.  ``factor_circuits`` and
``greedy_decomposition`` are the two walkers that ``graphs._walks``
replaced, the references for its walks.  ``decode_joins_by_trace`` and
``graph6_edges`` are the earlier cover decode and graph6 reader, the
references for ``solvers._decode_joins`` and ``families.parse_graph6``;
``graph6_edges_octal`` and ``write_graph6_matrix`` are the graph6 reader and
writer before the one body layout table, the references for the edges and
bytes of ``families.parse_graph6`` and ``families.write_graph6``.
``pullback_by_decomposition`` and ``split_cover_by_decomposition`` are the
earlier route to the covers read off an edge labelling, through the checked
``covers.decompose_even_subgraph``: the references for the pullback
``solvers._colouring_cover`` and for ``constructions._split_cover``.
``disjoint_union`` builds disconnected cubic graphs, and ``prism_graph``
the prisms C_k x K2.  Tests import this module as they import
``conftest``.
"""

import itertools
from collections import Counter
from math import isqrt

from cyclecover.constructions import _image, cover_from_cdc, merge_cdcs
from cyclecover.covers import (
    Circuit,
    CycleCover,
    circuit_from_walk,
    decompose_even_subgraph,
    is_even_subgraph,
    lift_cover,
    trace_circuit,
)
from cyclecover.errors import GraphError
from cyclecover.families import _MAX_N, _g6_read_n
from cyclecover.graphs import CubicGraph, Multigraph, _walks, suppress_degree_two
from cyclecover.solvers import _Joins, _join_search, find_cdc


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
    not finish in 120 s.  ``isomorphic`` decides those in milliseconds.
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


def _neighbour_counts(g: Multigraph):
    """The number of edges from each vertex to each vertex (a loop once)."""
    counts = [Counter() for _ in range(g.n)]
    for u, v in g.edges:
        counts[u][v] += 1
        if u != v:
            counts[v][u] += 1
    return counts


def isomorphic(g1: Multigraph, g2: Multigraph) -> bool:
    """Whether g1 and g2 are isomorphic as multigraphs, loops included.

    Extends a map from one anchored arc: the vertices of g1 are placed in
    BFS order, the root of each component on any free vertex of g2 and every
    other vertex on a neighbour of its parent's image, and a placement must
    keep the edge count to every placed vertex.  In graphs of maximum degree
    3 a vertex has at most two places once its parent is placed, so this is
    fast on symmetric graphs, where ``canonical_form`` is not.
    """
    n = g1.n
    if (n, g1.m) != (g2.n, g2.m):
        return False
    c1, c2 = _neighbour_counts(g1), _neighbour_counts(g2)
    parent, order, seen = [None] * n, [], set()
    for root in range(n):
        if root in seen:
            continue
        seen.add(root)
        i = len(order)
        order.append(root)
        while i < len(order):
            v, i = order[i], i + 1
            for w in sorted(c1[v].keys() - seen):
                seen.add(w)
                parent[w] = v
                order.append(w)
    image, preimage = [None] * n, [None] * n

    def fits(v, x):
        # the counts to v itself and to every placed vertex, both ways
        return (all(c2[x][x if w == v else image[w]] == k
                    for w, k in c1[v].items() if w == v or image[w] is not None)
                and all(c1[v][v if y == x else preimage[y]] == k
                        for y, k in c2[x].items() if y == x or preimage[y] is not None))

    def place(i):
        if i == n:
            return True
        v = order[i]
        for x in range(n) if parent[v] is None else c2[image[parent[v]]]:
            if preimage[x] is None and fits(v, x):
                image[v], preimage[x] = x, v
                if place(i + 1):
                    return True
                image[v] = preimage[x] = None
        return False

    return place(0)


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


def disjoint_union(*graphs) -> CubicGraph:
    """The cubic graphs side by side: each one's vertices and edges follow
    those of the graphs before it, in order."""
    edges, n = [], 0
    for g in graphs:
        edges += [(u + n, v + n) for u, v in g.edges]
        n += g.n
    return CubicGraph(n, edges)


def prism_graph(k) -> CubicGraph:
    """The prism C_k x K2: two k-circuits joined rung by rung."""
    edges = [(i, (i + 1) % k) for i in range(k)] + [(k + i, k + (i + 1) % k) for i in range(k)]
    return CubicGraph(2 * k, edges + [(i, k + i) for i in range(k)])


def truncation(g: Multigraph, X) -> Multigraph:
    """T_X: g with each vertex x of X made a triangle on the ends of its
    three edges, as a graph.

    Edge e keeps id e and its orientation.  x stays as the end of its first
    edge, the ends of its other two take new ids from n up, and the triangle
    edges (a, b), (a, c), (b, c) over its ends in incident-edge order take
    ids from m up.
    """
    edges, n, triangles = [list(uv) for uv in g.edges], g.n, []
    for x in X:
        for e in g.incident_edges[x][1:]:
            edges[e][edges[e].index(x)] = n
            n += 1
        triangles += ((x, n - 2), (x, n - 1), (n - 2, n - 1))
    return Multigraph(n, edges + triangles)


def join_search(table, edges, space, pins=None):
    """The reference for ``solvers._join_search``: (every (weight-1 edge
    mask, run of options) in the order it yields them, nodes spent), by
    plain recursion over its documented rule on the table's ``ends``,
    ``incident`` and ``pair``.

    Each edge of ``edges`` takes one of its two choices, or the one
    ``pins`` names; then the free vertices of ``space`` are matched.  The
    pick scans the free vertices in id order: the first with at most one
    free neighbour decides (none is a dead end, one is the pick), else the
    least with the fewest.  Its options are the two choices of each edge to
    a free neighbour, in incident order.  A chain is a path of joined
    half-edges with two free ends; a join of a chain's two ends closes a
    circuit, and a join of two chains that share a vertex refuses the
    choice.  A node is one option tried.
    """
    ends, full = table.ends, (1 << table.m) - 1
    near = {}
    for u, v in ends:
        near.setdefault(u, set()).add(v)
        near.setdefault(v, set()).add(u)
    order = [(table.pair(e)[pins[e]],) if pins and e in pins else table.pair(e) for e in edges]
    # each free half-edge: the other free end of its chain, and its vertices
    mate = {h: h ^ 1 for h in range(2 * len(ends))}
    verts = {h: frozenset(ends[h >> 1]) for h in mate}
    found, nodes = [], 0

    def joined(mate, verts, p, q):
        if mate[p] == q:
            return mate, verts
        if verts[p] & verts[q]:
            return None
        mate, verts = dict(mate), dict(verts)
        P, Q = mate[p], mate[q]
        mate[P], mate[Q] = Q, P
        verts[P] = verts[Q] = verts[p] | verts[q]
        return mate, verts

    def pick(free):
        counts = [(len(near[v] & free), v) for v in sorted(free)]
        return next((kv for kv in counts if kv[0] <= 1), min(counts))

    def rec(depth, free, mate, verts, run):
        nonlocal nodes
        if depth < len(order):
            v, tried = None, order[depth]
        elif not free:
            found.append((full & ~sum({1 << r for _, r, _ in run}), run))
            return
        else:
            k, v = pick(free)
            tried = [(1 << w, e, choice) for e in table.incident[v]
                     for w in (ends[e][ends[e][0] == v],) if k and w in free
                     for _, _, choice in table.pair(e)]
        for option in tried:
            nodes += 1
            state = (mate, verts)
            for p, q in option[2]:
                state = joined(*state, p, q)
                if state is None:
                    break
            else:
                left = free if v is None else free - {v, option[0].bit_length() - 1}
                rec(depth + 1, left, *state, run + [option])

    rec(0, {v for v in range(space.bit_length()) if space >> v & 1}, mate, verts, [])
    return found, nodes


def transition_covers(g, rest, budget):
    """The covers whose weight-1 edges are the 2-factor C = E - rest, by
    their transitions: the earlier first-cover route of
    ``solvers.shortest_cycle_cover``, kept as a reference for the joint
    search at 4m/3, which yields the covers of every 2-factor at once.

    Each rest edge takes one of its two ``_Joins`` choices; a choice is a
    cover exactly when no circuit passes a vertex twice.  The rest edges are
    tried in the order the walks of ``_walks`` over C meet them, each at its
    first end, in one ``solvers._join_search`` over g's table with no
    matching to grow; a node is one choice tried.
    """
    order = {}
    for _, verts in _walks(g, ((1 << g.m) - 1) & ~rest):
        for v in verts:
            for r in g.incident_edges[v]:
                if rest >> r & 1:
                    order.setdefault(r)
    return _join_search(_Joins(g), order, 0, budget)


def factor_circuits(g, pm):
    """The circuits of the 2-factor E - pm (``pm`` an edge mask of a perfect
    matching of the cubic graph g), each as its edge ids in walk order from
    its least vertex, in order of that vertex."""
    mate = [0] * g.n
    while pm:
        bit = pm & -pm
        e = bit.bit_length() - 1
        u, v = g.edges[e]
        mate[u] = mate[v] = e
        pm ^= bit
    seen = [False] * g.n
    walks = []
    for start in range(g.n):
        if seen[start]:
            continue
        # enter each vertex by a factor edge, leave by the first incident
        # edge that is neither that one nor its mate
        v, e, walk = start, mate[start], []
        while True:
            seen[v] = True
            skip = mate[v]
            for f in g.incident_edges[v]:
                if f != e and f != skip:
                    break
            a, b = g.edges[f]
            v, e = (b if a == v else a), f
            walk.append(f)
            if v == start:
                break
        walks.append(walk)
    return walks


def greedy_decomposition(g, edge_ids):
    """Split an even subgraph (any even degrees) into circuits: walk
    greedily from the least remaining edge id, always leaving a vertex by
    its least unused edge, and extract a circuit at the first vertex
    repeat.  Sorted by ``Circuit.sort_key``."""
    edge_ids = set(edge_ids)
    if not is_even_subgraph(g, edge_ids):
        raise ValueError("edge set is not an even subgraph")
    inc = {}
    for e in edge_ids:
        u, v = g.edges[e]
        inc.setdefault(u, set()).add(e)
        inc.setdefault(v, set()).add(e)
    circuits = []
    remaining = edge_ids
    walk_v, walk_e, pos = [], [], {}
    while remaining or walk_e:
        if not walk_e:
            e0 = min(remaining)
            start = min(g.edges[e0])
            walk_v = [start]
            pos = {start: 0}
            nxt = e0
        else:
            cur = walk_v[-1]
            nxt = min(inc[cur] & remaining)
        cur = walk_v[-1]
        remaining.discard(nxt)
        walk_e.append(nxt)
        w = g.other_end(nxt, cur)
        if w in pos:
            p = pos[w]
            circuits.append(circuit_from_walk(walk_e[p:], walk_v[p:]))
            for v in walk_v[p + 1:]:
                del pos[v]
            del walk_v[p + 1:]
            del walk_e[p:]
        else:
            walk_v.append(w)
            pos[w] = len(walk_v) - 1
    return tuple(sorted(circuits, key=Circuit.sort_key))


def decode_joins_by_trace(g, run):
    """The cover of g that a run of ``_join_search`` options gives, each
    circuit traced again from its edge set: the reference for
    ``solvers._decode_joins``, which builds each circuit from its own walk.
    Walk from each unseen half-edge along its edge, then through the join at
    the far end and the weight-2 edge of its option; edges from g.m up are a
    truncation's triangle edges, which the circuits of g leave out."""
    mate, strand = {}, {}
    for _, r, joins in run:
        for p, q in joins:
            mate[p], mate[q] = q, p
            strand[p] = strand[q] = r
    circuits, seen = [], set()
    for start in mate:
        p, edges = start, []
        while p not in seen:
            t = p ^ 1
            seen.update((p, t))
            edges += (p >> 1, strand[t])
            p = mate[t]
        if edges:
            circuits.append(trace_circuit(g, [e for e in edges if e < g.m]))
    return CycleCover.of(circuits)


def pullback_by_decomposition(g, label, classes):
    """The cover of the circuits of each class's preimage (the edges e with
    ``label[e]`` in the class), each preimage split by the checked
    ``decompose_even_subgraph``: the reference for the pullback
    ``solvers._colouring_cover``, which walks the preimages unchecked."""
    return CycleCover.of(c for cls in classes for c in decompose_even_subgraph(
        g, [e for e in range(g.m) if label[e] in cls]))


def split_cover_by_decomposition(g, factor, coloured, searched, shared, node_limit, where):
    """``constructions._split_cover`` by the earlier route: the colour-pair
    CDC pulled back in the reduction of the coloured part and lifted circuit
    by circuit, and the (1, 3) class lifted as an edge set and dropped by
    ``cover_from_cdc``, which splits it into circuits again.  The phase rule
    and the searched part are those of ``_split_cover``."""
    reduced, rmap = suppress_degree_two(g, coloured)
    colour = dict.fromkeys(range(reduced.m), 3)
    for circ in decompose_even_subgraph(reduced, _image(factor, rmap)):
        phases = (circ.edges[::2], circ.edges[1::2])
        ones = max(phases, key=lambda ones: sum(len(rmap.edge_path[e]) for e in ones))
        colour.update(dict.fromkeys(circ.edges, 2))
        colour.update(dict.fromkeys(ones, 1))
    cdc1 = lift_cover(pullback_by_decomposition(reduced, colour, ((1, 2), (1, 3), (2, 3))), rmap)
    c13 = {f for e, c in colour.items() if c in (1, 3) for f in rmap.edge_path[e]}
    reduced, rmap = suppress_degree_two(g, searched)
    images = [trace_circuit(reduced, _image(c.edges, rmap)) for c in shared]
    cdc2 = find_cdc(reduced, must_contain=images, node_limit=node_limit)
    merged = merge_cdcs(g, cdc1, lift_cover(cdc2, rmap), shared)
    return cover_from_cdc(g, merged, c13)


def graph6_edges(line):
    """The edges of a graph6 line in column order, read bit by bit from a
    list of the body's bits: the reference for ``families.parse_graph6``,
    with its checks and messages in the same order."""
    line = line.strip()
    if line.startswith(">>graph6<<"):
        line = line[len(">>graph6<<"):]
    data = line.encode("ascii", errors="replace")
    n, pos = _g6_read_n(data)
    body = data[pos:]
    need_bits = n * (n - 1) // 2
    need_bytes = (need_bits + 5) // 6
    if len(body) != need_bytes:
        raise GraphError(f"expected {need_bytes} data bytes for n={n}, got {len(body)}")
    bits = []
    for b in body:
        if not 63 <= b <= 126:
            raise GraphError(f"byte {b} outside graph6 range")
        x = b - 63
        bits.extend((x >> s) & 1 for s in (5, 4, 3, 2, 1, 0))
    if any(bits[need_bits:]):
        raise GraphError("nonzero padding bits")
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return edges


_G6_OCTAL = [""] * 63 + [format(x, "02o") for x in range(64)]  # a body byte's 6 bits


def graph6_edges_octal(line):
    """The edges of a graph6 line from one integer: the body's bytes, two
    octal digits each, fold into it, and with the padding shifted off its
    bit need_bits - 1 - k is bit k of the upper triangle, the pair (i, j)
    with k = j(j - 1)/2 + i.  Its set bits, highest first, give the edges;
    the checks and messages are those of ``families.parse_graph6`` but the
    first, since a non-ASCII character is read as ``?``."""
    line = line.strip()
    if line.startswith(">>graph6<<"):
        line = line[len(">>graph6<<"):]
    data = line.encode("ascii", errors="replace")
    n, pos = _g6_read_n(data)
    body = data[pos:]
    need_bits = n * (n - 1) // 2
    need_bytes = (need_bits + 5) // 6
    if len(body) != need_bytes:
        raise GraphError(f"expected {need_bytes} data bytes for n={n}, got {len(body)}")
    bad = body.translate(None, bytes(range(63, 127)))
    if bad:
        raise GraphError(f"byte {bad[0]} outside graph6 range")
    bits = int("0" + "".join(map(_G6_OCTAL.__getitem__, body)), 8)
    pad = 6 * need_bytes - need_bits
    if bits & ((1 << pad) - 1):
        raise GraphError("nonzero padding bits")
    bits >>= pad
    edges = []
    while bits:
        b = bits.bit_length() - 1
        k = need_bits - 1 - b
        j = (1 + isqrt(8 * k + 1)) >> 1
        edges.append((k - (j * (j - 1) >> 1), j))
        bits ^= 1 << b
    return edges


def write_graph6_matrix(g):
    """The graph6 line of a simple graph from its n x n adjacency matrix,
    its upper triangle packed column by column, six bits a byte."""
    if g.loops:
        raise GraphError("graph6 cannot encode loops")
    if g.has_parallel_edges:
        raise GraphError("graph6 cannot encode parallel edges")
    n = g.n
    if n <= 62:
        head = bytes([n + 63])
    elif n <= _MAX_N:
        head = bytes([126, 63 + (n >> 12), 63 + ((n >> 6) & 63), 63 + (n & 63)])
    else:
        raise GraphError("graph too large for the supported graph6 sizes")
    adj = [[False] * n for _ in range(n)]
    for u, v in g.edges:
        adj[u][v] = adj[v][u] = True
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(adj[i][j])
    while len(bits) % 6:
        bits.append(False)
    body = bytearray()
    for t in range(0, len(bits), 6):
        x = 0
        for b in bits[t:t + 6]:
            x = (x << 1) | int(b)
        body.append(x + 63)
    return (head + bytes(body)).decode("ascii")

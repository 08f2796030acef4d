"""Multigraph core and the graph surgery used by the constructions.

Edges are numbered 0..m-1.  Parallel edges are first-class (distinct edge
ids); loops are recorded and flagged on ``Multigraph`` but rejected by
``CubicGraph``.  Graphs are immutable after construction and safe to share.
"""

from __future__ import annotations

from functools import wraps

from .errors import GraphError, _Record


def _one_graph_memo(build):
    """``build(g)`` memoised for the last graph it was called on.  Graphs are
    immutable and hash by identity, so consecutive calls on one graph share
    one value; ``held(g)`` reads that value, or None, without building it,
    and ``keep(g, value)`` stores a value that ``build(g)`` would return."""
    memo = [None, None]

    @wraps(build)
    def cached(g):
        if memo[0] is not g:
            memo[:] = g, build(g)
        return memo[1]

    def keep(g, value):
        memo[:] = g, value

    cached.held = lambda g: memo[1] if memo[0] is g else None
    cached.keep = keep
    return cached


class Multigraph:
    """Undirected multigraph over vertices ``0..n-1``.

    ``incident_edges[v]`` lists incident edge ids in increasing order, with a
    loop listed twice, so ``len(incident_edges[v])`` is the degree.
    """

    __slots__ = (
        "n",
        "m",
        "edges",
        "incident_edges",
        "loops",
        "has_parallel_edges",
    )

    def __init__(self, n: int, edge_list):
        edges = tuple((int(u), int(v)) for u, v in edge_list)
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        self.n = n
        self.m = len(edges)
        self.edges = edges

        inc = [[] for _ in range(n)]
        loops = []
        for e, (u, v) in enumerate(edges):
            inc[u].append(e)
            inc[v].append(e)
            if u == v:
                loops.append(e)
        self.incident_edges = tuple(tuple(sorted(lst)) for lst in inc)
        self.loops = tuple(loops)
        seen = set()
        parallel = False
        for u, v in edges:
            key = (u, v) if u <= v else (v, u)
            if key in seen:
                parallel = True
                break
            seen.add(key)
        self.has_parallel_edges = parallel

    # -- edge view -----------------------------------------------------------

    def other_end(self, e: int, v: int) -> int:
        u, w = self.edges[e]
        if v == u:
            return w
        if v == w:
            return u
        raise ValueError(f"vertex {v} not on edge {e}")

    def degree(self, v: int) -> int:
        return len(self.incident_edges[v])

    def degrees(self):
        return tuple(len(lst) for lst in self.incident_edges)

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, m={self.m})"


class CubicGraph(Multigraph):
    """Validated cubic multigraph: every degree 3, no loops, n even."""

    __slots__ = ()

    def __init__(self, n, edge_list):
        super().__init__(n, edge_list)
        if self.loops:
            e = self.loops[0]
            raise GraphError(f"loop at vertex {self.edges[e][0]} (edge {e})")
        for v in range(self.n):
            if self.degree(v) != 3:
                raise GraphError(f"vertex {v} has degree {self.degree(v)}")
        # degree sum 3n = 2m forces n even; the check above implies it.


def build_graph(edge_list) -> CubicGraph:
    """Build and validate a cubic graph from a list of vertex pairs.

    Vertices are 0..n-1 where n is one more than the largest endpoint.
    Parallel edges are accepted (and flagged on the result); loops and
    non-cubic degree sequences are rejected.
    """
    edge_list = list(edge_list)
    if not edge_list:
        raise GraphError("empty edge list")
    n = max(max(u, v) for u, v in edge_list) + 1
    return CubicGraph(n, edge_list)


# --------------------------------------------------------------------------
# connectivity
# --------------------------------------------------------------------------

def is_connected(g: Multigraph) -> bool:
    return _cut_labels(g)[1] <= 1


@_one_graph_memo
def _cut_labels(g: Multigraph):
    """Exact cycle-space labels of the edges, and the number of components,
    memoised for the last graph (read by ``bridges`` and
    ``cyclic_connectivity_at_least``; callers must not change the labels).

    Over a spanning forest, each non-tree edge gets a bit of its own and each
    tree edge the XOR of the bits of the non-tree edges whose fundamental
    circuits pass through it: the XOR of the per-vertex bit sums over the
    subtree below it, taken in one reverse pass over the traversal order.  A
    loop's bit cancels at its vertex.  An edge set is an edge cut, the edges
    between some vertex set and the rest, iff its labels XOR to 0
    (Pritchard and Thurimella, "Fast computation of small cuts via cycle
    space sampling", ACM TALG 7(4), 2011, with one bit per non-tree edge in
    place of random words, so the test is exact).
    """
    parent_edge = [-1] * g.n
    seen = [False] * g.n
    order = []
    components = 0
    for root in range(g.n):
        if seen[root]:
            continue
        components += 1
        seen[root] = True
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            for e in g.incident_edges[v]:
                w = g.other_end(e, v)
                if not seen[w]:
                    seen[w] = True
                    parent_edge[w] = e
                    stack.append(w)
    label = [0] * g.m
    below = [0] * g.n
    bit = 1
    for e, (u, v) in enumerate(g.edges):
        if parent_edge[u] != e and parent_edge[v] != e:
            label[e] = bit
            below[u] ^= bit
            below[v] ^= bit
            bit <<= 1
    for v in reversed(order):
        e = parent_edge[v]
        if e >= 0:
            label[e] = below[v]
            below[g.other_end(e, v)] ^= below[v]
    return label, components


def bridges(g: Multigraph):
    """Edge ids of all bridges: the edges whose cut label is 0."""
    label, _ = _cut_labels(g)
    return [e for e, x in enumerate(label) if not x]


def is_bridgeless(g: Multigraph) -> bool:
    """True iff no cut edge exists."""
    return not bridges(g)


def cyclic_connectivity_at_least(g: CubicGraph, k: int) -> bool:
    """True iff no edge cut of size < k separates two circuit-containing parts.

    Decided from the labels of ``_cut_labels``; only k <= 4 is supported,
    which is all the constructions ever need.  In a cubic graph every
    component, and every side of a cut of at most 2 edges, holds a circuit,
    so the answer is False when the graph is disconnected (k >= 1), has a
    bridge, a label of 0 (k >= 2), or has a 2-edge cut, two equal labels
    (k >= 3).  Otherwise the graph is 3-edge-connected, and three edges
    whose labels XOR to 0 are all the edges leaving some vertex set S.  A
    side with 3 edges leaving and s vertices spans (3s - 3) / 2 edges, so it
    holds a circuit iff s >= 3, and the cut separates two circuits iff it is
    not the star of a vertex.  At k = 4 the m^2 / 2 pairs of labels are
    looked up for such a third edge.
    """
    if k > 4:
        raise GraphError("cyclic connectivity decision implemented for k <= 4 only")
    if k < 1:
        return True
    label, components = _cut_labels(g)
    if components > 1:
        return False
    if k == 1:
        return True
    if not all(label):
        return False
    if k == 2:
        return True
    edge_of = {x: e for e, x in enumerate(label)}
    if len(edge_of) < g.m:
        return False
    if k == 3:
        return True
    stars = {g.incident_edges[v] for v in range(g.n)}
    for i, x in enumerate(label):
        for j in range(i + 1, g.m):
            c = edge_of.get(x ^ label[j], -1)
            if c > j and (i, j, c) not in stars:
                return False
    return True


def girth(g: Multigraph) -> int:
    """Length of a shortest circuit (1 for a loop, 2 for a parallel pair, 0
    for a forest).

    One BFS per root.  A non-tree edge xy closes a walk through the root of
    length dist(x) + dist(y) + 1, which holds a circuit no longer, and the
    BFS from a vertex of a shortest circuit meets one of exactly its length.
    Edges met while expanding depth d close walks of length at least 2d + 1,
    so a root's BFS stops once that reaches the best length found.  With no
    loop or parallel edge, no circuit is shorter than 3, so the roots stop
    at the first triangle.
    """
    if g.loops:
        return 1
    if g.has_parallel_edges:
        return 2
    adj = [[(f, g.other_end(f, v)) for f in inc] for v, inc in enumerate(g.incident_edges)]
    best = g.n + 1  # longer than any circuit
    for root in range(g.n):
        if best == 3:
            break
        dist, via = [-1] * g.n, [-1] * g.n
        dist[root] = d = 0
        frontier = [root]
        while frontier and 2 * d + 1 < best:
            nxt = []
            for x in frontier:
                for f, y in adj[x]:
                    if dist[y] < 0:
                        dist[y], via[y] = d + 1, f
                        nxt.append(y)
                    elif f != via[x] and d + dist[y] + 1 < best:
                        best = d + dist[y] + 1
            frontier = nxt
            d += 1
    return 0 if best > g.n else best


def _mask(ids):
    x = 0
    for i in ids:
        x |= 1 << i
    return x


def _walks(g: Multigraph, keep):
    """The circuits of the edges in the mask ``keep``, in which every vertex
    must have degree 0 or 2 (unchecked): one (edges, vertices) walk per
    circuit, where ``edges[i]`` leaves ``vertices[i]``.  Circuits come in
    order of their least vertex; each walk leaves that vertex by the lower
    of its two kept edges, and every other vertex by its other kept edge.
    The scan for start vertices stops once every kept edge is walked.
    """
    inc, ends = g.incident_edges, g.edges
    seen = [False] * g.n
    walks, left = [], keep.bit_count()
    for start in range(g.n):
        if not left:
            break
        if seen[start]:
            continue
        for e in inc[start]:
            if keep >> e & 1:
                break
        else:
            continue
        v, edges, verts = start, [], []
        while True:
            seen[v] = True
            edges.append(e)
            verts.append(v)
            a, b = ends[e]
            v = b if a == v else a
            if v == start:
                break
            for f in inc[v]:
                if f != e and keep >> f & 1:
                    break
            e = f
        walks.append((edges, verts))
        left -= len(edges)
    return walks


# --------------------------------------------------------------------------
# surgery
# --------------------------------------------------------------------------

class ReductionMap(_Record):
    """How the edges of a reduction map back to the graph it was taken from.

    ``edge_path[e]`` (a tuple of tuples) lists, in traversal order, the edge
    ids of ``original`` (a ``Multigraph``) that reduced edge ``e`` replaces;
    the interior vertices of each path have degree 2 in the subgraph that
    was smoothed.
    """

    __slots__ = ("original", "edge_path")


def suppress_degree_two(g: Multigraph, edge_ids):
    """Smooth the degree-2 vertices of the subgraph of ``g`` spanned by
    ``edge_ids``; return the cubic result and its map back to ``g``.

    Every vertex that the edges touch must have degree 2 or 3 in the
    subgraph.  The reduced vertices are the degree-3 vertices in id order,
    and each one's chains are walked over its kept edges in id order.
    Raises ``ValueError`` for an id that is not an edge of ``g`` or a vertex
    of another degree, and ``GraphError`` when some component of the
    subgraph has no degree-3 vertex (its edges lie on no chain; the caller
    must special-case circuit components), or when smoothing would close a
    chain onto a single degree-3 vertex.
    """
    kept = sorted(set(edge_ids))
    inc = [[] for _ in range(g.n)]
    for e in kept:
        if not 0 <= e < g.m:
            raise ValueError(f"edge set names {e}, which is not an edge of the graph")
        u, v = g.edges[e]
        inc[u].append(e)
        inc[v].append(e)
    for v, es in enumerate(inc):
        if len(es) not in (0, 2, 3):
            raise ValueError(f"vertex {v} has degree {len(es)}; suppression needs 2 or 3")
    keep = [v for v, es in enumerate(inc) if len(es) == 3]
    if not keep:
        raise GraphError("graph is a disjoint union of circuits")

    walked = set()
    new_edges = []
    paths = []
    for v in keep:
        for e in inc[v]:
            if e in walked:  # an edge at a degree-3 vertex ends every chain it lies on
                continue
            # walk from v along the chain of degree-2 vertices
            path = [e]
            cur = g.other_end(e, v)
            while len(inc[cur]) == 2:
                e1, e2 = inc[cur]
                nxt = e2 if e1 == path[-1] else e1
                path.append(nxt)
                cur = g.other_end(nxt, cur)
            walked.update(path)
            new_edges.append((v, cur))
            paths.append(tuple(path))

    unused = set(kept) - walked
    if unused:
        v = min(x for e in unused for x in g.edges[e])
        raise GraphError(f"component containing vertex {v} is a circuit")
    for u, v in new_edges:
        if u == v:
            raise GraphError(f"suppression would create a loop at vertex {v}")
    index = {v: i for i, v in enumerate(keep)}
    reduced = CubicGraph(len(keep), [(index[u], index[v]) for u, v in new_edges])
    return reduced, ReductionMap(g, tuple(paths))


class ContractionMap(_Record):
    """Bookkeeping for ``contract_two_factor``, two tuples of ints.

    ``vertex_map[v]`` is the contracted vertex for original vertex ``v``;
    ``edge_origin[e]`` is the original edge id behind contracted edge ``e``.
    """

    __slots__ = ("vertex_map", "edge_origin")


def is_spanning_regular(g: Multigraph, edge_ids, d: int) -> bool:
    """True iff every id lies in 0..m-1 and the edges give every vertex degree
    ``d``: a perfect matching for d = 1, a 2-factor for d = 2."""
    deg = [0] * g.n
    for e in edge_ids:
        if not 0 <= e < g.m:
            return False
        u, v = g.edges[e]
        deg[u] += 1
        deg[v] += 1
    return deg == [d] * g.n


def contract_two_factor(g: CubicGraph, two_factor):
    """Contract each component of a 2-factor to a single vertex.

    The remaining edges are the complementary perfect matching; loops (matching
    edges inside one component) and parallel edges are kept and flagged.
    """
    f = frozenset(two_factor)
    if not is_spanning_regular(g, f, 2):
        raise GraphError("edge set is not a spanning 2-regular subgraph")

    walks = _walks(g, sum(1 << e for e in f))
    comp = [0] * g.n
    for i, (_, verts) in enumerate(walks):
        for v in verts:
            comp[v] = i

    rest = sorted(set(range(g.m)) - f)
    new_edges = [(comp[g.edges[e][0]], comp[g.edges[e][1]]) for e in rest]
    contracted = Multigraph(len(walks), new_edges)
    cmap = ContractionMap(tuple(comp), tuple(rest))
    return contracted, cmap


def two_cut_join(g1: CubicGraph, e1: int, g2: CubicGraph, e2: int, cross: bool = False) -> CubicGraph:
    """Delete e1 from g1 and e2 from g2 and join the ends by two new edges.

    With ``cross=False`` the lower endpoint of e1 is joined to the lower
    endpoint of e2; with ``cross=True`` the pairing is swapped.  The result
    always has a 2-edge cut, so it fails cyclic connectivity 3.
    """
    for g, e, which in ((g1, e1, "first"), (g2, e2, "second")):
        if not 0 <= e < g.m:
            raise GraphError(f"edge {e} is not an edge of the {which} graph")
        if e in bridges(g):
            raise GraphError(f"edge {e} is a bridge of the {which} graph")
    u1, v1 = sorted(g1.edges[e1])
    u2, v2 = sorted(g2.edges[e2])
    off = g1.n
    edges = [g1.edges[e] for e in range(g1.m) if e != e1]
    edges += [(u + off, v + off) for e, (u, v) in enumerate(g2.edges) if e != e2]
    if cross:
        edges += [(u1, v2 + off), (v1, u2 + off)]
    else:
        edges += [(u1, u2 + off), (v1, v2 + off)]
    return CubicGraph(g1.n + g2.n, edges)


"""Dart-based multigraph core and the graph surgery used by the constructions.

Edges are numbered 0..m-1; edge ``e`` owns the two darts ``2e`` and ``2e+1``,
and ``opposite`` is the fixed-point-free involution ``d -> d ^ 1``.  Parallel
edges are first-class (distinct edge ids); loops are recorded and flagged on
``Multigraph`` but rejected by ``CubicGraph``.  Graphs are immutable after
construction and safe to share.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    AllDegreeTwo,
    BridgeDeleted,
    LoopEdge,
    NotCubic,
    NotTwoFactor,
    Unsupported,
)


class Multigraph:
    """Undirected multigraph over vertices ``0..n-1``.

    ``vertex_labels[v]`` remembers the caller-facing name of internal vertex
    ``v`` (surgery results use this to point back at the graph they came
    from).  ``incident_edges[v]`` lists incident edge ids in increasing order,
    with a loop listed twice, so ``len(incident_edges[v])`` is the degree.
    """

    __slots__ = (
        "n",
        "m",
        "edges",
        "vertex_labels",
        "incident_edges",
        "loops",
        "has_parallel_edges",
    )

    def __init__(self, n: int, edge_list, vertex_labels=None):
        edges = tuple((int(u), int(v)) for u, v in edge_list)
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        self.n = n
        self.m = len(edges)
        self.edges = edges
        if vertex_labels is None:
            vertex_labels = tuple(range(n))
        else:
            vertex_labels = tuple(vertex_labels)
            if len(vertex_labels) != n:
                raise ValueError("vertex_labels length mismatch")
        self.vertex_labels = vertex_labels

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

    # -- dart view ---------------------------------------------------------

    def opposite(self, dart: int) -> int:
        return dart ^ 1

    def incident_darts(self, v: int):
        out = []
        for e, (a, b) in enumerate(self.edges):
            if a == v:
                out.append(2 * e)
            if b == v:
                out.append(2 * e + 1)
        return tuple(out)

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

    def __init__(self, n, edge_list, vertex_labels=None):
        super().__init__(n, edge_list, vertex_labels)
        if self.loops:
            e = self.loops[0]
            raise LoopEdge(f"loop at vertex {self.edges[e][0]} (edge {e})")
        for v in range(self.n):
            if self.degree(v) != 3:
                raise NotCubic(f"vertex {self.vertex_labels[v]} has degree {self.degree(v)}")
        # degree sum 3n = 2m forces n even; the check above implies it.


def build_graph(edge_list) -> CubicGraph:
    """Build and validate a cubic graph from a list of vertex pairs.

    Vertices are 0..n-1 where n is one more than the largest endpoint.
    Parallel edges are accepted (and flagged on the result); loops and
    non-cubic degree sequences are rejected.
    """
    edge_list = list(edge_list)
    if not edge_list:
        raise NotCubic("empty edge list")
    n = max(max(u, v) for u, v in edge_list) + 1
    return CubicGraph(n, edge_list)


# --------------------------------------------------------------------------
# connectivity
# --------------------------------------------------------------------------

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


def is_connected(g: Multigraph) -> bool:
    return g.n == 0 or len(connected_components(g)) == 1


def bridges(g: Multigraph):
    """Edge ids of all bridges (DFS lowpoint; parallel edges are never bridges)."""
    _, found = _lowpoint_pass(_adjacency(g), [0] * g.n, ())
    return sorted(e for e, _, _ in found)


def _adjacency(g: Multigraph):
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


def is_bridgeless(g: Multigraph) -> bool:
    """True iff no cut edge exists."""
    return not bridges(g)


def cyclic_connectivity_at_least(g: CubicGraph, k: int) -> bool:
    """True iff no edge cut of size < k separates two circuit-containing parts.

    Pair-and-bridge search: if S is a minimal such cut, every edge c of S is
    a bridge of G - (S - {c}).  So for every edge set T of size <= k - 2 the
    bridges c > max(T) of G - T are tried as the last edge of S = T + {c};
    the cut T itself (the empty cut included) is tested on the way.  Only
    k <= 4 is supported, which is all the constructions ever need.

    At k = 4 a triangle on three distinct vertices decides at once when
    n > 4: b <= 3 edges leave it, and the other n - 3 vertices span
    (3n - 9 - b) / 2 edges, at least n - 3 as n >= 6, so they hold a
    circuit too.
    """
    if k > 4:
        raise Unsupported("cyclic connectivity decision implemented for k <= 4 only")
    adj = _adjacency(g)
    if k == 4 and g.n > 4:
        near = [{w for _, w in lst if w != v} for v, lst in enumerate(adj)]
        if any(near[u] & near[v] for u, v in g.edges):
            return False
    excess = [len(lst) - 2 for lst in adj]
    for size in range(k - 1):
        for cut in itertools.combinations(range(g.m), size):
            if _separates_circuits(g, adj, excess, cut):
                return False
    return True


def _separates_circuits(g, adj, excess, cut):
    """Whether G - cut, or G - cut - c for a bridge c > max(cut), has two
    components that contain circuits.

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
        if c > lo and cyclic - (x[r] >= 0) + (a >= 1) + (x[r] - a >= 1) >= 2:
            return True
    return False


def girth(g: Multigraph) -> int:
    """Length of a shortest circuit (1 for a loop, 2 for a parallel pair)."""
    if g.loops:
        return 1
    best = None
    for e, (u, v) in enumerate(g.edges):
        # shortest u-v path avoiding edge e, BFS
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


# --------------------------------------------------------------------------
# surgery
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ReductionMap:
    """Correspondence from a suppressed graph back to its original.

    ``edge_path[e]`` lists, in traversal order, the original edge ids that the
    reduced edge ``e`` replaces; interior vertices of each path had degree 2
    at suppression time.
    """

    original: Multigraph
    reduced: "CubicGraph"
    edge_path: tuple
    suppressed_vertices: tuple


def suppress_degree_two(g: Multigraph):
    """Smooth all degree-2 vertices; return the cubic result and its map.

    Every vertex must have degree 2 or 3.  Raises ``AllDegreeTwo`` when some
    component has no degree-3 vertex (the caller must special-case circuit
    components), and ``LoopEdge`` when smoothing would close a chain onto a
    single degree-3 vertex.
    """
    degs = g.degrees()
    for v, d in enumerate(degs):
        if d not in (2, 3):
            raise ValueError(f"vertex {g.vertex_labels[v]} has degree {d}; suppression needs 2 or 3")
    keep = [v for v in range(g.n) if degs[v] == 3]
    if not keep:
        raise AllDegreeTwo("graph is a disjoint union of circuits")
    comp_ok = set()
    for comp in connected_components(g):
        if not any(degs[v] == 3 for v in comp):
            raise AllDegreeTwo(f"component containing vertex {g.vertex_labels[comp[0]]} is a circuit")
        comp_ok.update(comp)

    keep_set = set(keep)
    used_darts = set()
    new_edges = []
    paths = []

    for v in keep:
        for e in g.incident_edges[v]:
            a, b = g.edges[e]
            start_dart = 2 * e if a == v else 2 * e + 1
            if start_dart in used_darts:
                continue
            # walk from v along the chain of degree-2 vertices
            path = [e]
            used_darts.add(start_dart)
            cur = g.other_end(e, v)
            prev_edge = e
            while cur not in keep_set:
                e1, e2 = g.incident_edges[cur][0], g.incident_edges[cur][-1]
                nxt = e2 if e1 == prev_edge else e1
                path.append(nxt)
                cur_next = g.other_end(nxt, cur)
                prev_edge = nxt
                cur = cur_next
            # mark the far-end dart so the chain is not traversed again
            u2, v2 = g.edges[prev_edge]
            end_dart = 2 * prev_edge if u2 == cur else 2 * prev_edge + 1
            used_darts.add(end_dart)
            if cur == v:
                raise LoopEdge(f"suppression would create a loop at vertex {g.vertex_labels[v]}")
            new_edges.append((v, cur))
            paths.append(tuple(path))

    labels = tuple(g.vertex_labels[v] for v in keep)
    index = {v: i for i, v in enumerate(keep)}
    reduced = CubicGraph(len(keep), [(index[u], index[v]) for u, v in new_edges], labels)
    suppressed = tuple(g.vertex_labels[v] for v in range(g.n) if v not in keep_set)
    rmap = ReductionMap(g, reduced, tuple(paths), suppressed)
    return reduced, rmap


@dataclass(frozen=True)
class ContractionMap:
    """Bookkeeping for ``contract_two_factor``.

    ``vertex_map[v]`` is the contracted vertex for original vertex ``v``;
    ``edge_origin[e]`` is the original edge id behind contracted edge ``e``.
    """

    original: Multigraph
    contracted: Multigraph
    vertex_map: tuple
    edge_origin: tuple


def contract_two_factor(g: CubicGraph, two_factor):
    """Contract each component of a 2-factor to a single vertex.

    The remaining edges are the complementary perfect matching; loops (matching
    edges inside one component) and parallel edges are kept and flagged.
    """
    f = frozenset(two_factor)
    deg_in_f = [0] * g.n
    for e in f:
        u, v = g.edges[e]
        deg_in_f[u] += 1
        deg_in_f[v] += 1
    if any(d != 2 for d in deg_in_f):
        raise NotTwoFactor("edge set is not a spanning 2-regular subgraph")

    comp = [-1] * g.n
    cid = 0
    for start in range(g.n):
        if comp[start] != -1:
            continue
        stack = [start]
        comp[start] = cid
        while stack:
            v = stack.pop()
            for e in g.incident_edges[v]:
                if e not in f:
                    continue
                w = g.other_end(e, v)
                if comp[w] == -1:
                    comp[w] = cid
                    stack.append(w)
        cid += 1

    rest = sorted(set(range(g.m)) - f)
    new_edges = [(comp[g.edges[e][0]], comp[g.edges[e][1]]) for e in rest]
    contracted = Multigraph(cid, new_edges)
    cmap = ContractionMap(g, contracted, tuple(comp), tuple(rest))
    return contracted, cmap


def two_cut_join(g1: CubicGraph, e1: int, g2: CubicGraph, e2: int, cross: bool = False) -> CubicGraph:
    """Delete e1 from g1 and e2 from g2 and join the ends by two new edges.

    With ``cross=False`` the lower endpoint of e1 is joined to the lower
    endpoint of e2; with ``cross=True`` the pairing is swapped.  The result
    always has a 2-edge cut, so it fails cyclic connectivity 3.
    """
    if e1 in bridges(g1):
        raise BridgeDeleted(f"edge {e1} is a bridge of the first graph")
    if e2 in bridges(g2):
        raise BridgeDeleted(f"edge {e2} is a bridge of the second graph")
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


def edge_subgraph(g: Multigraph, edge_ids):
    """Restrict to the given edges (vertices of degree 0 are dropped).

    Returns ``(subgraph, edge_origin)`` where ``edge_origin[e]`` is the parent
    edge id of subgraph edge ``e``; vertex labels are the parent's labels.
    """
    edge_ids = sorted(set(edge_ids))
    verts = sorted({v for e in edge_ids for v in g.edges[e]})
    index = {v: i for i, v in enumerate(verts)}
    edges = [(index[g.edges[e][0]], index[g.edges[e][1]]) for e in edge_ids]
    labels = tuple(g.vertex_labels[v] for v in verts)
    return Multigraph(len(verts), edges, labels), tuple(edge_ids)

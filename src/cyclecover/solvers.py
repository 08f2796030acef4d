"""Exact solvers: circuits, covers, matchings, colourings, connectivity search.

Everything here is exhaustive or branch-and-bound with proofs by search
completion; node limits abort a search (``NodeLimitExceeded``) and are never
conflated with a proven negative answer.  All searches use fixed variable and
value orders, so results are deterministic for a given graph.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .covers import Circuit, CycleCover, KCdc, trace_circuit
from .errors import (
    Bridged,
    NodeLimitExceeded,
    NoThreePaths,
    NoTwoFactor,
    Unsupported,
)
from .graphs import CubicGraph, Multigraph, bridges, is_connected


# --------------------------------------------------------------------------
# circuit enumeration
# --------------------------------------------------------------------------

class _CircuitSpace:
    """Simple circuits of a graph, as parallel arrays of bitmasks.

    Holds every circuit of ``g``, or only the given ``walks``: pairs of the
    edge ids and the vertices of one circuit.  Order: increasing
    (length, sorted edge tuple); this is also the canonical candidate order
    of the cover engines, where trying short circuits first keeps the lower
    bound tight.  ``by_edge[e]`` lists the circuits through edge ``e`` in
    that order.
    """

    __slots__ = ("g", "masks", "vmasks", "elists", "vlists", "lengths", "by_edge")

    def __init__(self, g: Multigraph, walks=None):
        self.g = g
        if walks is None:
            raw = _raw_circuits(g)
        else:
            raw = [(tuple(sorted(edges)), tuple(verts)) for edges, verts in walks]
        raw.sort(key=lambda t: (len(t[0]), t[0]))
        self.elists = [t[0] for t in raw]
        self.vlists = [t[1] for t in raw]
        self.lengths = [len(t[0]) for t in raw]
        self.masks = [_mask(t[0]) for t in raw]
        self.vmasks = [_mask(t[1]) for t in raw]
        by_edge = [[] for _ in range(g.m)]
        for i, edges in enumerate(self.elists):
            for e in edges:
                by_edge[e].append(i)
        self.by_edge = [tuple(lst) for lst in by_edge]

    def circuit(self, i: int) -> Circuit:
        return trace_circuit(self.g, self.elists[i])

    def __len__(self):
        return len(self.masks)


def _mask(ids):
    x = 0
    for i in ids:
        x |= 1 << i
    return x


def _raw_circuits(g: Multigraph):
    """Each simple circuit once, as (sorted edge tuple, vertex tuple)."""
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


def enumerate_circuits(g: Multigraph):
    """All circuits in canonical form, sorted by (length, edge ids)."""
    space = _CircuitSpace(g)
    return [space.circuit(i) for i in range(len(space))]


# --------------------------------------------------------------------------
# the cover search engine (shortest covers, CDCs, enumeration)
# --------------------------------------------------------------------------

class _SearchStop(Exception):
    pass


class _CoverEngine:
    """Branch and bound over circuit multisets.

    ``coverage[e]`` is the weight edge e must reach (1 for covers, 2 for
    double covers, less on edges of circuits a caller has already placed),
    ``cap[e]`` the most it may take, and ``vcap[v]``, the sum of the caps at
    v, bounds the weight of vertex v.  Branches on the deficient edge whose
    ends have the least spare capacity, vcap - w(v); candidate circuits are
    tried in space order, shortest first; a tried candidate is banned for the
    rest of the node so every multiset is visited once.
    The lower bound is  (1/2) * sum_v nexteven(w(v) + deficit(v)).
    ``nodes`` starts at the nodes a caller already spent under the same
    ``node_limit``, so it and an abort's count are running totals.
    """

    def __init__(self, g, space, coverage, cap, node_limit=None, by_edge=None, nodes=0):
        self.g = g
        self.space = space
        self.coverage = coverage
        self.cap = cap
        self.node_limit = node_limit
        self.by_edge = by_edge if by_edge is not None else space.by_edge
        m, n = g.m, g.n
        self.vcap = [0] * n
        self.deficit = [0] * n
        for e, ends in enumerate(g.edges):
            for v in ends:
                self.vcap[v] += cap[e]
                self.deficit[v] += coverage[e]
        self.w = [0] * m
        self.wv = [0] * n
        self.contrib = [self._c(v) for v in range(n)]
        self.total = sum(self.contrib)
        self.short = sum(coverage)  # sum of remaining edge deficits
        self.length = 0
        self.sat_mask = _mask(e for e in range(m) if cap[e] == 0)
        self.vfull_mask = _mask(v for v in range(n) if self.vcap[v] <= 1)
        self.banned = [False] * len(space.masks)
        self.chosen = []
        self.nodes = nodes

    def _c(self, v):
        x = self.wv[v] + self.deficit[v]
        return x + (x & 1)

    # -- state updates -----------------------------------------------------

    def _apply(self, ci, sign):
        g = self.g
        coverage, cap, vcap = self.coverage, self.cap, self.vcap
        wv, w, deficit, contrib = self.wv, self.w, self.deficit, self.contrib
        for v in self.space.vlists[ci]:
            wv[v] += 2 * sign
        for e in self.space.elists[ci]:
            old = w[e]
            w[e] = new = old + sign
            if sign > 0:
                if old < coverage[e]:
                    u, x = g.edges[e]
                    deficit[u] -= 1
                    deficit[x] -= 1
                    self.short -= 1
                if new == cap[e]:
                    self.sat_mask |= 1 << e
            else:
                if new < coverage[e]:
                    u, x = g.edges[e]
                    deficit[u] += 1
                    deficit[x] += 1
                    self.short += 1
                if old == cap[e]:
                    self.sat_mask &= ~(1 << e)
        for v in self.space.vlists[ci]:
            c = self._c(v)
            self.total += c - contrib[v]
            contrib[v] = c
            # full: one more circuit through v would exceed vcap[v]
            if sign > 0 and wv[v] >= vcap[v] - 1:
                self.vfull_mask |= 1 << v
            elif sign < 0 and wv[v] < vcap[v] - 1:
                self.vfull_mask &= ~(1 << v)
        self.length += sign * self.space.lengths[ci]

    def _pick_edge(self):
        w, coverage, wv, vcap = self.w, self.coverage, self.wv, self.vcap
        best, key = -1, None
        for e, (u, v) in enumerate(self.g.edges):
            if w[e] < coverage[e]:
                k = vcap[u] - wv[u] + vcap[v] - wv[v]
                if key is None or k < key:
                    key, best = k, e
        return best

    # -- search modes --------------------------------------------------------

    def search(self, mode, bound, collect=None):
        """mode 'first': return the first cover of length <= bound in the fixed
        DFS order, or None when none exists (complete proof).

        mode 'all': call ``collect(chosen)`` for every cover of length exactly
        ``bound`` and return None.
        """
        self.bound = bound
        self.best = None
        self._collect = collect
        try:
            self._dfs(mode == "first")
        except _SearchStop:
            pass
        return self.best

    def _dfs(self, first_mode):
        if self.short == 0:
            if first_mode:
                self.best = tuple(self.chosen)
                raise _SearchStop
            if self.length == self.bound:
                self._collect(tuple(self.chosen))
            return
        e = self._pick_edge()
        rem = self.bound - self.length
        unban = []
        lengths = self.space.lengths
        masks = self.space.masks
        vmasks = self.space.vmasks
        banned = self.banned
        try:
            for ci in self.by_edge[e]:
                if lengths[ci] > rem or banned[ci]:
                    continue
                if masks[ci] & self.sat_mask:
                    continue
                if vmasks[ci] & self.vfull_mask:
                    continue
                self.nodes += 1
                if self.node_limit is not None and self.nodes > self.node_limit:
                    raise NodeLimitExceeded(nodes=self.nodes)
                self.chosen.append(ci)
                self._apply(ci, +1)
                if self.total // 2 <= self.bound:
                    self._dfs(first_mode)
                self._apply(self.chosen.pop(), -1)
                banned[ci] = True
                unban.append(ci)
        finally:
            for ci in unban:
                banned[ci] = False


@dataclass(frozen=True)
class SccResult:
    length: int
    cover: CycleCover
    optimal: bool
    weight_cap_used: int
    nodes: int


def _check_coverable(g):
    if not is_connected(g):
        raise ValueError("graph must be connected")
    b = bridges(g)
    if b:
        raise Bridged(f"no cycle cover exists: bridge(s) at edges {b}")


def _alternating_circuits(g, rest, x=-1):
    """All circuits that pass, at every vertex other than x, one edge of the
    2-regular subgraph E - rest and one edge of ``rest`` (an edge mask).

    With x = -1, E - rest is a 2-factor and ``rest`` its perfect matching;
    otherwise E - rest misses x, whose three edges are all in ``rest``, and
    a circuit may pass x by any two of them.  These are the only circuits
    that can complete a CDC through the circuits of E - rest (see
    ``_structured_covers``).  Each circuit comes once, as the (edges,
    vertices) walk that leaves its least ``rest`` edge e0 at the first end
    of e0.
    """
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


def _near_factor_rests(g, x):
    """E - C, as edge masks, for every 2-regular subgraph C that covers
    exactly the vertices other than x.

    C holds both other edges of each neighbour of x, so E - C is the star of
    x plus a perfect matching of G - N[x], and C exists only when x has three
    distinct neighbours.  The complements of C within E - star(x) reverse the
    order of the matchings' sorted edge tuples, so the C come in include-first
    order: of two, the one holding the least edge where they differ first.
    """
    ends = {g.other_end(e, x) for e in g.incident_edges[x]}
    if len(ends) < 3:
        return []
    star = _mask(g.incident_edges[x])
    free = ((1 << g.n) - 1) & ~_mask(ends | {x})
    return [star | _mask(t) for t in reversed(_matching_search(g, free))]


def _structured_covers(g, node_limit=None, first=False):
    """The covers of length 4m/3 or 4m/3 + 1, found through their weight-1 edges.

    A cover of length 2n + excess (2n = 4m/3) has vertex weights 4, that is
    edge weights 1, 1, 2, except that at excess 1 one vertex x has weight 6,
    with edge weights 2, 2, 2 (an edge of weight 3 would need weight 6 at
    both ends).  So no cap above 2 changes these covers.  The weight-1 edges
    C form a 2-factor, or a 2-regular subgraph missing x, and adding C's
    circuits to the cover gives a cycle double cover.  The covers of that
    length are therefore the multisets of circuits of
    ``_alternating_circuits`` that cover every edge of C once and every other
    edge twice.  A cover determines C and x, so each one is found exactly
    once.  2-factors come first; each level is searched exhaustively, and one
    node budget covers every search.

    Returns (length, covers, nodes): ``covers`` lists (weight-1 edge mask,
    circuits as sorted edge tuples) in search order, only the first one with
    ``first``.  Returns (None, [], nodes) when the optimum is longer.
    """
    store = _matchings(g)
    full = (1 << g.m) - 1
    levels = (((-1, pm) for pm in store.masks),
              ((x, rest) for x in range(g.n) for rest in _near_factor_rests(g, x)))
    nodes = 0
    for excess, level in enumerate(levels):
        covers = []
        for x, rest in level:
            space = _CircuitSpace(g, _alternating_circuits(g, rest, x))
            demand = [1 + (rest >> e & 1) for e in range(g.m)]
            eng = _CoverEngine(g, space, demand, demand, node_limit=node_limit, nodes=nodes)
            if first:
                hit = eng.search("first", bound=2 * g.n + excess)
                hits = [] if hit is None else [hit]
            else:
                hits = []
                eng.search("all", bound=2 * g.n + excess, collect=hits.append)
            nodes = eng.nodes
            covers += [(full & ~rest, tuple(space.elists[i] for i in hit)) for hit in hits]
            if first and covers:
                break
        if covers:
            return 2 * g.n + excess, covers, nodes
    return None, [], nodes


def _deepening(g, cap, node_limit=None, seed_order=None, nodes=0):
    """Optimal length above 4m/3 + 1, by iterative deepening of the direct
    branch and bound over all circuits.

    ``seed_order`` shuffles the exploration order; the witness is then
    re-derived in the canonical order.  Returns (length, witness indices,
    space, nodes), counting on from the ``nodes`` already spent.
    """
    space = _CircuitSpace(g)
    by_edge = None
    if seed_order is not None:
        rng = random.Random(seed_order)
        by_edge = []
        for lst in space.by_edge:
            lst = list(lst)
            rng.shuffle(lst)
            by_edge.append(tuple(lst))
    ones, caps = [1] * g.m, [cap] * g.m
    target = 2 * g.n + 2
    while True:
        eng = _CoverEngine(g, space, ones, caps, node_limit=node_limit, by_edge=by_edge,
                           nodes=nodes)
        found = eng.search("first", bound=target)
        nodes = eng.nodes
        if found is not None:
            if by_edge is not None:
                # witness must not depend on the shuffled exploration order
                eng = _CoverEngine(g, space, ones, caps, node_limit=node_limit, nodes=nodes)
                found = eng.search("first", bound=target)
                nodes = eng.nodes
            return target, found, space, nodes
        if target > 2 * g.m * cap:
            raise AssertionError("no cover found below the trivial bound")
        target += 1


def shortest_cycle_cover(g: CubicGraph, cap: int = 2, node_limit=None, seed_order=None) -> SccResult:
    """Minimum-length cycle cover subject to every edge weight <= cap.

    The witness is the first cover of ``_structured_covers``, else that of
    ``_deepening``.  ``seed_order`` shuffles exploration in the deepening
    only; the reported witness is re-derived canonically there, so it never
    changes results.
    """
    if cap < 2:
        raise ValueError("no cycle cover of a cubic graph has all weights below 2")
    _check_coverable(g)
    length, covers, nodes = _structured_covers(g, node_limit, first=True)
    if covers:
        cover = CycleCover.of(trace_circuit(g, edges) for edges in covers[0][1])
    else:
        length, found, space, nodes = _deepening(g, cap, node_limit, seed_order, nodes)
        cover = CycleCover.of(space.circuit(i) for i in found)
    assert cover.length == length
    return SccResult(length, cover, True, cap, nodes)


@dataclass(frozen=True)
class WeightSpectrum:
    optimal_length: int
    per_edge: tuple
    n_optimal_covers: int
    nodes: int


def edge_weight_spectrum(g: CubicGraph, cap: int = 2, node_limit=None) -> WeightSpectrum:
    """Weights attained per edge over all optimal covers (same cap and rules).

    At 4m/3 and 4m/3 + 1 each optimal cover comes once from
    ``_structured_covers``, with weight 1 on its weight-1 edges and 2
    elsewhere.  Longer optima enumerate every cover over all circuits.
    ``nodes`` counts the search nodes of every stage, all within one
    ``node_limit``.
    """
    if cap < 2:
        raise ValueError("no cycle cover of a cubic graph has all weights below 2")
    _check_coverable(g)
    length, covers, nodes = _structured_covers(g, node_limit)
    if covers:
        attained = [set() for _ in range(g.m)]
        for ones in {ones for ones, _ in covers}:
            for e in range(g.m):
                attained[e].add(2 - (ones >> e & 1))
        return WeightSpectrum(length, tuple(frozenset(s) for s in attained), len(covers), nodes)
    length, _, space, nodes = _deepening(g, cap, node_limit, nodes=nodes)
    return _spectrum_over(space, cap, length, node_limit, nodes)


def _spectrum_over(space, cap, length, node_limit=None, nodes=0):
    """The spectrum of the covers of the given length over every circuit of
    ``space`` (the engine visits each multiset once); ``nodes`` counts on
    from the nodes already spent."""
    g = space.g
    eng = _CoverEngine(g, space, [1] * g.m, [cap] * g.m, node_limit=node_limit, nodes=nodes)
    attained = [set() for _ in range(g.m)]
    covers = 0

    def collect(chosen):
        nonlocal covers
        covers += 1
        w = [0] * g.m
        for ci in chosen:
            for e in space.elists[ci]:
                w[e] += 1
        for e in range(g.m):
            attained[e].add(w[e])

    eng.search("all", bound=length, collect=collect)
    return WeightSpectrum(length, tuple(frozenset(s) for s in attained), covers, eng.nodes)


# --------------------------------------------------------------------------
# perfect matchings, tau, oddness
# --------------------------------------------------------------------------

def enumerate_perfect_matchings(g: Multigraph):
    """All perfect matchings as frozensets of edge ids, sorted by their
    sorted edge tuples."""
    return [frozenset(t) for t in _matching_search(g, (1 << g.n) - 1)]


def _matching_search(g, free):
    """The perfect matchings of the subgraph induced by the vertex mask
    ``free``, as sorted edge tuples in sorted order.

    The search keeps the free vertices as a bitmask, branches on the free
    vertex with the fewest free neighbours and backs up at a free vertex
    with none.  Branching on a vertex splits the matchings by the edge that
    covers it, so each is found once; the order comes from the final sort.
    """
    options = [[] for _ in range(g.n)]  # (edge, far end bit) per vertex
    near = [0] * g.n  # neighbour mask per vertex
    for e, (u, v) in enumerate(g.edges):
        if u != v:
            options[u].append((e, 1 << v))
            options[v].append((e, 1 << u))
            near[u] |= 1 << v
            near[v] |= 1 << u
    found = []
    chosen = []

    def rec(free):
        if not free:
            found.append(tuple(sorted(chosen)))
            return
        fewest = g.n
        x = free
        while x:
            bit = x & -x
            v = bit.bit_length() - 1
            k = (free & near[v]).bit_count()
            if k < fewest:
                if not k:
                    return
                best, fewest = v, k
                if k == 1:
                    break
            x ^= bit
        rest = free & ~(1 << best)
        for e, w in options[best]:
            if rest & w:
                chosen.append(e)
                rec(rest ^ w)
                chosen.pop()

    rec(free)
    found.sort()
    return found


def _edge_set(mask):
    return frozenset(e for e in range(mask.bit_length()) if mask >> e & 1)


class _Matchings:
    """The perfect matchings of one graph as edge masks, in enumeration order.

    ``factor_counts`` lists, per matching, the (odd components, components)
    of the complementary 2-factor; it is computed on first use.
    """

    __slots__ = ("g", "masks", "_counts")

    def __init__(self, g):
        self.g = g
        self.masks = [_mask(pm) for pm in enumerate_perfect_matchings(g)]
        self._counts = None

    @property
    def factor_counts(self):
        if self._counts is None:
            g = self.g
            # turns[v][e]: the other two (edge, far end) pairs at v
            turns = [{e: [(f, g.other_end(f, v)) for f in inc if f != e] for e in inc}
                     for v, inc in enumerate(g.incident_edges)]
            self._counts = []
            for rest in self.masks:
                mate = [0] * g.n
                for e in range(rest.bit_length()):
                    if rest >> e & 1:
                        u, v = g.edges[e]
                        mate[u] = mate[v] = e
                seen = [False] * g.n
                odd = circuits = 0
                for start in range(g.n):
                    if seen[start]:
                        continue
                    # walk the circuit through start: enter each vertex by a
                    # factor edge, leave by the edge that is not its mate
                    v, e, length = start, mate[start], 0
                    while True:
                        seen[v] = True
                        (a, wa), (b, wb) = turns[v][e]
                        v, e = (wb, b) if a == mate[v] else (wa, a)
                        length += 1
                        if v == start:
                            break
                    odd += length & 1
                    circuits += 1
                self._counts.append((odd, circuits))
        return self._counts


@lru_cache(maxsize=1)
def _matchings(g) -> _Matchings:
    """The matching store of ``g``.  Graphs are immutable and hash by
    identity, so consecutive solver calls on one graph share one store."""
    return _Matchings(g)


@dataclass(frozen=True)
class TauResult:
    """Perfect matching index with a witness; ``tau is None`` means AboveLimit."""

    tau: int | None
    matchings: tuple

    @property
    def above_limit(self) -> bool:
        return self.tau is None


def perfect_matching_index(g: CubicGraph, limit: int = 5) -> TauResult:
    """Smallest k <= limit with k perfect matchings covering E(g)."""
    masks = _matchings(g).masks
    if not masks:
        return TauResult(None, ())
    m = g.m
    per_edge = [tuple(i for i, mk in enumerate(masks) if mk >> e & 1) for e in range(m)]
    if any(not lst for lst in per_edge):
        return TauResult(None, ())
    full = (1 << m) - 1
    size = g.n // 2

    def cover_with(k):
        banned = [False] * len(masks)
        out = []

        def rec(covmask, depth):
            if covmask == full:
                return True
            if depth == k:
                return False
            missing = m - covmask.bit_count()
            if missing > (k - depth) * size:
                return False
            x = ~covmask & full
            e = (x & -x).bit_length() - 1
            unban = []
            found = False
            for ci in per_edge[e]:
                if banned[ci]:
                    continue
                out.append(ci)
                if rec(covmask | masks[ci], depth + 1):
                    found = True
                    break
                out.pop()
                banned[ci] = True
                unban.append(ci)
            for ci in unban:
                banned[ci] = False
            return found

        return out if rec(0, 0) else None

    for k in range(3, limit + 1):
        sol = cover_with(k)
        if sol is not None:
            return TauResult(k, tuple(_edge_set(masks[i]) for i in sol))
    return TauResult(None, ())


def oddness(g: CubicGraph):
    """Minimum odd-component count over all 2-factors, with a witness.

    Among minimisers the witness has the fewest components in total, then is
    first in matching enumeration order.
    """
    store = _matchings(g)
    if not store.masks:
        raise NoTwoFactor("graph has no perfect matching, hence no 2-factor")
    counts = store.factor_counts
    best = min(range(len(counts)), key=counts.__getitem__)
    return counts[best][0], _edge_set(((1 << g.m) - 1) & ~store.masks[best])


# --------------------------------------------------------------------------
# circumference
# --------------------------------------------------------------------------

def circumference(g: Multigraph):
    """Exact longest circuit by DFS from each anchor v0, the least vertex of
    the circuits it explores.

    A branch is cut when the path plus every free vertex (unvisited, above
    v0; reachable or not) cannot beat the best circuit so far.
    """
    adj = [[] for _ in range(g.n)]
    for e, (u, v) in enumerate(g.edges):
        if u == v:
            continue
        adj[u].append((e, v))
        adj[v].append((e, u))
    for lst in adj:
        lst.sort()
    best = [0, None]
    n = g.n

    def dfs(v0, cur, first_edge, visited_mask, path_edges, path_verts):
        for e, w in adj[cur]:
            if w == v0:
                # close only with a larger edge id, so each circuit is seen once
                if e > first_edge and len(path_edges) + 1 > best[0]:
                    best[0] = len(path_edges) + 1
                    best[1] = (tuple(path_edges + [e]), tuple(path_verts))
                continue
            if w < v0 or visited_mask >> w & 1:
                continue
            # extending to w gives a circuit of at most (path vertices + w) + free
            free = n - v0 - 1 - ((visited_mask | 1 << w) >> (v0 + 1)).bit_count()
            if len(path_edges) + 2 + free <= best[0]:
                continue
            path_edges.append(e)
            path_verts.append(w)
            dfs(v0, w, first_edge, visited_mask | 1 << w, path_edges, path_verts)
            path_edges.pop()
            path_verts.pop()

    for v0 in range(g.n):
        if g.n - v0 <= best[0]:
            break
        for e, w in adj[v0]:
            if w < v0:
                continue
            dfs(v0, w, e, (1 << v0) | (1 << w), [e], [v0, w])
    if best[1] is None:
        return 0, None
    edges, verts = best[1]
    from .covers import circuit_from_walk

    return best[0], circuit_from_walk(edges, verts)


# --------------------------------------------------------------------------
# cycle double cover search
# --------------------------------------------------------------------------

def find_cdc(g: CubicGraph, must_contain=(), k=None, two_factor_class=False, node_limit=None):
    """Search for a cycle double cover.

    Without ``k``: circuit-form search; the result is a ``CycleCover`` with
    every edge weight exactly 2 that holds the circuits of ``must_contain``,
    or ``None`` when the search space is exhausted (proven infeasible).  The
    forced circuits lower each edge's demand, 2 less the times they pass it,
    and the search covers every edge to its demand.

    With ``k``: searches for a k-class CDC (``KCdc``); classes may be empty.
    ``two_factor_class`` requires the last class to be a spanning 2-factor.
    Each edge is labelled by the pair of classes that hold it: at a vertex
    every class is used twice or not at all, so the three pairs form a
    triangle of classes, and with a 2-factor class a triangle through it.
    """
    if k is None:
        if two_factor_class:
            raise Unsupported("a 2-factor class constraint needs the k-class search")
        space = _CircuitSpace(g)
        circuits = set(space.elists)
        demand = [2] * g.m
        for c in must_contain:
            if tuple(sorted(c.edges)) not in circuits:
                return None  # not a circuit of g: nothing can contain it
            for e in c.edges:
                demand[e] -= 1
        if any(d < 0 for d in demand):
            return None
        eng = _CoverEngine(g, space, demand, demand, node_limit=node_limit)
        found = eng.search("first", bound=sum(demand))
        if found is None:
            return None
        return CycleCover.of([trace_circuit(g, c.edges) for c in must_contain]
                             + [space.circuit(i) for i in found])
    if must_contain:
        raise Unsupported("must_contain is only available in the circuit-form search")
    if k < 2:
        raise Unsupported("k-CDC search needs k >= 2")
    pairs = list(combinations(range(k), 2))
    pair_id = {p: i for i, p in enumerate(pairs)}
    tf = k - 1 if two_factor_class else None
    stars = [{pair_id[a, b], pair_id[a, c], pair_id[b, c]}
             for a, b, c in combinations(range(k), 3) if tf in (None, c)]
    # the classes other than the 2-factor class are interchangeable
    symbols = [_mask(c for c in p if c != tf) for p in pairs]
    labels = _label_search(g, stars, symbols, node_limit)
    if labels is None:
        return None
    return KCdc.of(frozenset(e for e in range(g.m) if c in pairs[labels[e]]) for c in range(k))


# --------------------------------------------------------------------------
# disjoint paths in the contracted multigraph
# --------------------------------------------------------------------------

def three_disjoint_paths(mg: Multigraph, s: int, t: int):
    """Three edge-disjoint s-t paths of minimal total edge count.

    These are the contracted images of vertex-disjoint paths of the parent
    cubic graph: paths may share an intermediate vertex of the multigraph but
    never an edge.  Unit-capacity min-cost flow (successive shortest paths).
    """
    if s == t:
        raise ValueError("endpoints must differ")
    # arcs: (from, to, edge_id); cap 1 each; an optimal flow never uses both
    # directions of one edge (cancelling both lowers the cost).
    arcs = []
    for e, (u, v) in enumerate(mg.edges):
        if u == v:
            continue
        arcs.append([u, v, e, 0])
        arcs.append([v, u, e, 0])
    flow_total = 0
    for _ in range(3):
        # Bellman-Ford on the residual graph, cost +1 forward, -1 to cancel
        dist = {s: 0}
        pred = {}
        for _ in range(mg.n):
            improved = False
            for idx, (u, v, e, f) in enumerate(arcs):
                if f == 0 and u in dist and dist[u] + 1 < dist.get(v, 1 << 30):
                    dist[v] = dist[u] + 1
                    pred[v] = (idx, "use")
                    improved = True
                if f == 1 and v in dist and dist[v] - 1 < dist.get(u, 1 << 30):
                    dist[u] = dist[v] - 1
                    pred[u] = (idx, "cancel")
                    improved = True
            if not improved:
                break
        if t not in dist:
            raise NoThreePaths(f"only {flow_total} disjoint paths exist")
        v = t
        while v != s:
            idx, kind = pred[v]
            if kind == "use":
                arcs[idx][3] = 1
                v = arcs[idx][0]
            else:
                arcs[idx][3] = 0
                v = arcs[idx][1]
        flow_total += 1

    # net flow per edge id
    net = {}
    for u, v, e, f in arcs:
        if f:
            net[e] = (u, v) if e not in net else None
    used = {e: uv for e, uv in net.items() if uv is not None}
    paths = []
    for _ in range(3):
        path = []
        cur = s
        while cur != t:
            e = min(e for e, (u, v) in used.items() if u == cur)
            path.append(e)
            cur = used.pop(e)[1]
        paths.append(tuple(path))
    d = sum(len(p) for p in paths)
    return paths, d


# --------------------------------------------------------------------------
# edge labellings: 3-edge-colourings, Petersen colourings, k-class CDCs
# --------------------------------------------------------------------------

def _label_search(g: Multigraph, stars, symbols=None, node_limit=None):
    """First labelling of the edges of ``g`` (loopless) in which the labels
    at every vertex of degree 3 form one of ``stars``, and the labels at any
    vertex are pairwise in a common star; None when none exists (complete
    proof).

    ``stars`` are sets of three labels, and two labels lie in at most one
    star, so any two labels at a vertex fix the third.  Each edge keeps a
    bitmask domain.  Labelling an edge narrows the other edges at its ends to
    the labels that share a star with it, and fixes the third edge of a
    vertex whose other two edges are labelled; a domain that falls to one
    label is labelled at once.  The search branches on the smallest domain,
    then the lowest edge id, and tries its labels in ascending order, one
    node each.  ``symbols[a]`` masks the interchangeable symbols that label
    ``a`` uses; a branch may use no new symbol above the highest used one
    plus one, which stays sound when propagation uses symbols out of order.
    """
    count = 1 + max((max(star) for star in stars), default=-1)
    adj = [0] * count
    third = {}
    for star in stars:
        for a in star:
            for b in star:
                if a != b:
                    adj[a] |= 1 << b
                    (third[a, b],) = set(star) - {a, b}
    symbols = symbols or [0] * count
    m = g.m
    # ends[e]: for each end of e, the other edges there
    ends = [[[f for f in g.incident_edges[v] if f != e] for v in g.edges[e]] for e in range(m)]
    full = _mask(a for star in stars for a in star)
    dom = [full] * m
    lab = [-1] * m
    trail = []  # (edge, domain, label) before each change
    used = 0  # symbols of the labelled edges
    nodes = 0

    def narrow(f, d, queue):
        if d != dom[f]:
            if not d:
                return False
            trail.append((f, dom[f], -1))
            dom[f] = d
            if not d & (d - 1):
                queue.append((f, d.bit_length() - 1))
        return True

    def label(e, a):
        nonlocal used
        queue = [(e, a)]
        while queue:
            e, a = queue.pop()
            trail.append((e, dom[e], -1))
            dom[e], lab[e] = 1 << a, a
            used |= symbols[a]
            for others in ends[e]:
                done = [lab[f] for f in others if lab[f] >= 0]
                for f in others:
                    if lab[f] < 0:
                        d = 1 << third[a, done[0]] if len(others) == 2 and done else adj[a]
                        if not narrow(f, dom[f] & d, queue):
                            return False
        return True

    def rec():
        nonlocal used, nodes
        best, size = -1, count + 1
        for e in range(m):
            if lab[e] < 0 and dom[e].bit_count() < size:
                best, size = e, dom[e].bit_count()
        if best < 0:
            return True
        mark, before = len(trail), used
        d = dom[best]
        for a in range(count):
            if not d >> a & 1:
                continue
            # first use: symbols above the highest used one must run on from it
            high = (used | symbols[a]) >> used.bit_length()
            if high & (high + 1):
                continue
            nodes += 1
            if node_limit is not None and nodes > node_limit:
                raise NodeLimitExceeded(nodes=nodes)
            if label(best, a) and rec():
                return True
            while len(trail) > mark:
                e, dom[e], lab[e] = trail.pop()
            used = before
        return False

    return lab if rec() else None


def edge_colouring_3(g: Multigraph):
    """Proper 3-edge-colouring as {edge: 1|2|3}, or None (proven impossible)."""
    if g.loops:
        return None
    colours = _label_search(g, [{0, 1, 2}], symbols=[1, 2, 4])
    return None if colours is None else {e: c + 1 for e, c in enumerate(colours)}

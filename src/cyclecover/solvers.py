"""Exact solvers: circuits, covers, matchings, colourings, connectivity search.

Everything here is exhaustive or branch-and-bound with proofs by search
completion; node limits abort a search (``NodeLimitExceeded``) and are never
conflated with a proven negative answer.  All searches use fixed variable and
value orders, so results are deterministic for a given graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .covers import Circuit, CycleCover, KCdc, circuit_from_walk, trace_circuit
from .errors import GraphError, HypothesisViolated, NodeLimitExceeded
from .graphs import CubicGraph, Multigraph, bridges, is_connected


# --------------------------------------------------------------------------
# circuit enumeration
# --------------------------------------------------------------------------

class _CircuitSpace:
    """The circuits of ``_circuits(g, rest, free)``, as parallel arrays of
    bitmasks.

    Order: increasing (length, sorted edge tuple); this is also the canonical
    candidate order of the cover engines, where trying short circuits first
    keeps the lower bound tight.  ``by_edge[e]`` lists the circuits through
    edge ``e`` in that order.
    """

    __slots__ = ("g", "masks", "vmasks", "elists", "vlists", "lengths", "by_edge")

    def __init__(self, g: Multigraph, rest, free):
        self.g = g
        raw = [(tuple(sorted(edges)), verts) for edges, verts in _circuits(g, rest, free)]
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


def _circuits(g: Multigraph, rest, free):
    """The circuits that pass each vertex outside the vertex mask ``free`` by
    one edge of ``rest`` (an edge mask) and one edge of E - rest, and each
    vertex of ``free`` by any two of its edges.

    E - rest must be 2-regular on the vertices outside ``free``, and every
    edge at a free vertex must be in ``rest``.  With rest = E and free = V
    these are all the circuits of g, which ``_deepening`` and
    ``_spectrum_over`` search.  With E - rest vertex-disjoint circuits of a
    cubic graph, they are the only circuits that can complete a CDC through
    those circuits (see ``find_cdc``).  Each comes once, as the (edges,
    vertices) walk that leaves its least ``rest`` edge e0 at the first end
    of e0.  (The covers of length 4m/3 and 4m/3 + 1 need no circuit list:
    see ``_transition_covers``.)
    """
    # moves out of a vertex entered by a rest edge: a free vertex leaves by a
    # rest edge (e2, y); any other leaves by a factor edge f to w, whose one
    # rest edge e2 goes on to y (f, w, e2, y)
    moves = [[] for _ in range(g.n)]
    r_edge, r_end = [-1] * g.n, [-1] * g.n
    for e, (u, v) in enumerate(g.edges):
        if rest >> e & 1 and u != v:
            for a, b in ((u, v), (v, u)):
                if free >> a & 1:
                    moves[a].append((e, b))
                else:
                    r_edge[a], r_end[a] = e, b
    for f, (u, v) in enumerate(g.edges):
        if not rest >> f & 1:
            moves[u].append((f, v, r_edge[v], r_end[v]))
            moves[v].append((f, u, r_edge[u], r_end[u]))
    out = []

    def extend(cur, e0, u0, visited, path_e, path_v):
        if free >> cur & 1:
            for e2, y in moves[cur]:
                if e2 <= e0:
                    continue
                if y == u0:
                    out.append((path_e + [e2], tuple(path_v)))
                    continue
                if visited >> y & 1:
                    continue
                path_e.append(e2)
                path_v.append(y)
                extend(y, e0, u0, visited | 1 << y, path_e, path_v)
                path_v.pop()
                path_e.pop()
            return
        for f, w, e2, y in moves[cur]:
            if w == u0:
                out.append((path_e + [f], tuple(path_v)))
                continue
            if e2 <= e0 or visited >> w & 1:
                continue
            if y == u0:  # e2 is a second rest edge at u0, so u0 is free
                out.append((path_e + [f, e2], (*path_v, w)))
                continue
            if visited >> y & 1:
                continue
            path_e += (f, e2)
            path_v += (w, y)
            extend(y, e0, u0, visited | 1 << w | 1 << y, path_e, path_v)
            del path_v[-2:]
            del path_e[-2:]

    for e0, (u0, v0) in enumerate(g.edges):
        if rest >> e0 & 1 and u0 != v0:
            extend(v0, e0, u0, (1 << u0) | (1 << v0), [e0], [u0, v0])
    return out


def enumerate_circuits(g: Multigraph):
    """All circuits in canonical form, sorted by (length, edge ids)."""
    space = _CircuitSpace(g, (1 << g.m) - 1, (1 << g.n) - 1)
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

    def __init__(self, g, space, coverage, cap, node_limit=None, nodes=0):
        self.g = g
        self.space = space
        self.coverage = coverage
        self.cap = cap
        self.node_limit = node_limit
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
            for ci in self.space.by_edge[e]:
                if lengths[ci] > rem or banned[ci]:
                    continue
                if masks[ci] & self.sat_mask:
                    continue
                if vmasks[ci] & self.vfull_mask:
                    continue
                self.nodes += 1
                if self.node_limit is not None and self.nodes > self.node_limit:
                    raise NodeLimitExceeded("cover engine", self.nodes)
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
    """``stage`` names the search that settled the optimum: "4m/3" or
    "4m/3+1" (``_structured_covers``), or "deepening"."""

    length: int
    cover: CycleCover
    optimal: bool
    weight_cap_used: int
    nodes: int
    stage: str


_STAGES = ("4m/3", "4m/3+1")  # by the excess over 4m/3


def _check_coverable(g):
    if not is_connected(g):
        raise ValueError("graph must be connected")
    b = bridges(g)
    if b:
        raise HypothesisViolated(f"no cycle cover exists: bridge(s) at edges {b}")


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


def _structured_covers(g, node_limit=None, first=False, decode=False):
    """The covers of length 4m/3 or 4m/3 + 1, found through their weight-1 edges.

    A cover of length 2n + excess (2n = 4m/3) has vertex weights 4, that is
    edge weights 1, 1, 2, except that at excess 1 one vertex x has weight 6,
    with edge weights 2, 2, 2 (an edge of weight 3 would need weight 6 at
    both ends).  So no cap above 2 changes these covers.  The weight-1 edges
    C form a 2-factor, or a 2-regular subgraph missing x, and every cover of
    that length through C is one choice of ``_transition_covers(g, E - C,
    x)``.  A cover determines C and x, so each one is found exactly once.
    2-factors come first; each level is searched exhaustively, and one node
    budget covers every search.

    Returns (length, covers, nodes): ``covers`` lists (weight-1 edge mask,
    circuits as sorted edge tuples, or None unless ``decode`` or ``first``)
    in search order, only the first one with ``first``.  Returns (None, [],
    nodes) when the optimum is longer.
    """
    store = _matchings(g)
    full = (1 << g.m) - 1
    levels = (((-1, pm) for pm in store.masks),
              ((x, rest) for x in range(g.n) for rest in _near_factor_rests(g, x)))
    nodes = 0
    for excess, level in enumerate(levels):
        covers = []
        for x, rest in level:
            count, found, nodes = _transition_covers(g, rest, x, first, decode or first,
                                                     node_limit, nodes)
            covers += zip([full & ~rest] * count, found or [None] * count)
            if first and covers:
                break
        if covers:
            return 2 * g.n + excess, covers, nodes
    return None, [], nodes


def _transition_covers(g, rest, x, first=False, decode=False, node_limit=None, nodes=0):
    """The covers whose weight-1 edges are C = E - rest, a 2-factor (x = -1)
    or a 2-regular subgraph missing the vertex x, by their transitions.

    At a vertex of weight 4 both cover circuits take its rest edge and each
    takes one of its two C edges.  So a cover pairs, at each rest edge uv,
    the C edges at u with those at v (two ways), and at x its three circuits
    take the three pairs of x's edges, each joined at its two far ends to one
    C edge there (2 * 2 * 2 ways).  A choice is a cover exactly when no
    circuit passes a vertex twice, that is when the two C edges at a vertex
    never join one circuit (two circuits through x share a neighbour of x,
    so this holds at x too).  Distinct choices give distinct covers.

    The search joins C edges at their ends: end 2v + s is the end at v of
    the s-th C edge at v.  Joined C edges form chains, and each free end of
    a chain holds the chain's other free end and vertex mask, so a join
    that closes a chain is a circuit and one that links two chains whose
    masks meet is refused.  The connectors come in the order a walk along
    C's circuits meets them, and the search runs from an explicit stack; a
    node is one choice tried.

    Returns (count, covers, nodes), counting on from ``nodes``: ``covers``
    lists each cover's circuits as sorted edge tuples when ``decode``, and
    is empty otherwise.  ``first`` stops at the first cover.
    """
    ones = [[] for _ in range(g.n)]  # the C edges at each vertex
    for e, (u, v) in enumerate(g.edges):
        if not rest >> e & 1:
            ones[u].append(e)
            ones[v].append(e)
    opp, vm = [0] * (2 * g.n), [0] * (2 * g.n)
    for v, here in enumerate(ones):
        for s, e in enumerate(here):
            w = g.other_end(e, v)
            opp[2 * v + s] = 2 * w + ones[w].index(e)
            vm[2 * v + s] = 1 << v | 1 << w
    across = opp[:]  # the far end of each C edge
    # options[i]: the choices at connector i, each a tuple of joins (end,
    # end, the rest edges of the strand between them)
    options, placed, seen = [], set(), [False] * g.n
    for start in range(g.n):
        v, e = start, -1
        while v != x and not seen[v]:
            seen[v] = True
            r = next(f for f in g.incident_edges[v] if rest >> f & 1)
            if r not in placed and x in g.edges[r]:
                a, b, c = star = g.incident_edges[x]
                placed.update(star)
                ya, yb, yc = (2 * g.other_end(f, x) for f in star)
                options.append([((ya + i, yb + j, (a, b)), (ya + 1 - i, yc + k, (a, c)),
                                 (yb + 1 - j, yc + 1 - k, (b, c)))
                                for i in (0, 1) for j in (0, 1) for k in (0, 1)])
            elif r not in placed:
                placed.add(r)
                p, q = 2 * v, 2 * g.other_end(r, v)
                options.append((((p, q, (r,)), (p + 1, q + 1, (r,))),
                                ((p, q + 1, (r,)), (p + 1, q, (r,)))))
            e = ones[v][ones[v][0] == e]
            v = g.other_end(e, v)

    k = len(options)
    nxt, mark, trail = [0] * (k + 1), [0] * (k + 1), []  # trail: (P, p, Q, q) per link
    count, covers, i = 0, [], 0
    limit = float("inf") if node_limit is None else node_limit
    while i >= 0:
        while len(trail) > mark[i]:
            P, p, Q, q = trail.pop()
            opp[P], opp[Q] = p, q
            vm[P], vm[Q] = vm[p], vm[q]
        if i == k:
            count += 1
            if decode:
                covers.append(_decode_joins(ones, across, [options[j][nxt[j] - 1]
                                                           for j in range(k)]))
            if first:
                break
            i -= 1
            continue
        c = nxt[i]
        if c == len(options[i]):
            nxt[i] = 0
            i -= 1
            continue
        nxt[i] = c + 1
        nodes += 1
        if nodes > limit:
            raise NodeLimitExceeded("transitions", nodes)
        for p, q, _ in options[i][c]:
            P, Q = opp[p], opp[q]
            if P != q:  # else the join closes p's chain into a circuit
                if vm[p] & vm[q]:
                    break
                opp[P], opp[Q] = Q, P
                vm[P] = vm[Q] = vm[p] | vm[q]
                trail.append((P, p, Q, q))
        else:
            i += 1
            mark[i] = len(trail)
    return count, covers, nodes


def _decode_joins(ones, across, chosen):
    """The circuits of one choice of ``_transition_covers``, as sorted edge
    tuples: walk from each unseen end along its C edge, then the join there."""
    mate, strand = {}, {}
    for joins in chosen:
        for p, q, edges in joins:
            mate[p], mate[q] = q, p
            strand[p] = strand[q] = edges
    circuits, seen = [], set()
    for start in mate:
        p, edges = start, []
        while p not in seen:
            t = across[p]
            seen.update((p, t))
            edges += (ones[p >> 1][p & 1], *strand[t])
            p = mate[t]
        if edges:
            circuits.append(tuple(sorted(edges)))
    return tuple(circuits)


def _deepening(g, cap, node_limit=None, nodes=0):
    """Optimal length above 4m/3 + 1, by iterative deepening of the direct
    branch and bound over all circuits.

    Returns (length, witness indices, space, nodes), counting on from the
    ``nodes`` already spent.
    """
    space = _CircuitSpace(g, (1 << g.m) - 1, (1 << g.n) - 1)
    ones, caps = [1] * g.m, [cap] * g.m
    target = 2 * g.n + 2
    while True:
        eng = _CoverEngine(g, space, ones, caps, node_limit=node_limit, nodes=nodes)
        found = eng.search("first", bound=target)
        nodes = eng.nodes
        if found is not None:
            return target, found, space, nodes
        if target > 2 * g.m * cap:
            raise AssertionError("no cover found below the trivial bound")
        target += 1


def shortest_cycle_cover(g: CubicGraph, cap: int = 2, node_limit=None) -> SccResult:
    """Minimum-length cycle cover subject to every edge weight <= cap.

    The witness is the first cover of ``_structured_covers``, else that of
    ``_deepening``.
    """
    if cap < 2:
        raise ValueError("no cycle cover of a cubic graph has all weights below 2")
    _check_coverable(g)
    length, covers, nodes = _structured_covers(g, node_limit, first=True)
    if covers:
        cover = CycleCover.of(trace_circuit(g, edges) for edges in covers[0][1])
        stage = _STAGES[length - 2 * g.n]
    else:
        length, found, space, nodes = _deepening(g, cap, node_limit, nodes)
        cover = CycleCover.of(space.circuit(i) for i in found)
        stage = "deepening"
    assert cover.length == length
    return SccResult(length, cover, True, cap, nodes, stage)


@dataclass(frozen=True)
class WeightSpectrum:
    """``stage`` names the search that settled the optimum, as in
    ``SccResult``."""

    optimal_length: int
    per_edge: tuple
    n_optimal_covers: int
    nodes: int
    stage: str


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
        return WeightSpectrum(length, tuple(frozenset(s) for s in attained), len(covers), nodes,
                              _STAGES[length - 2 * g.n])
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
    return WeightSpectrum(length, tuple(frozenset(s) for s in attained), covers, eng.nodes,
                          "deepening")


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
    """The perfect matchings of one graph as edge masks, in enumeration order,
    and the 2-factors they leave.

    ``factors()`` walks the 2-factors in that order and yields, per matching,
    the (odd circuits, circuits) of the complementary 2-factor.  Each pair is
    computed once, when a walk first reaches it, and memoised, so a question
    that stops early leaves the rest uncounted and the next walk reads the
    counted prefix before it counts on.  ``factor_counts`` drains the walk.
    ``holders[e]`` is the set of matchings that hold edge e, as a bitmask
    over their indices, built on first use.
    """

    __slots__ = ("g", "masks", "_counts", "_holders")

    def __init__(self, g):
        self.g = g
        self.masks = [_mask(pm) for pm in enumerate_perfect_matchings(g)]
        self._counts = []
        self._holders = None

    @property
    def holders(self):
        if self._holders is None:
            # the columns of the matchings' bit rows, edge m - 1 first (no
            # rows, no columns: with no matching, no edge has a holder)
            m = self.g.m
            rows = [format(pm, f"0{m}b") for pm in self.masks]
            cols = [int("".join(col)[::-1], 2) for col in zip(*rows)][::-1]
            self._holders = cols or [0] * m
        return self._holders

    def factors(self):
        counts = self._counts
        for i, pm in enumerate(self.masks):
            if i == len(counts):
                counts.append(self._count(pm))
            yield counts[i]

    @property
    def factor_counts(self):
        return list(self.factors())

    def _count(self, pm):
        walks = self.factor_circuits(pm)
        return sum(len(w) & 1 for w in walks), len(walks)

    def factor_circuits(self, pm):
        """The circuits of the 2-factor E - pm, each as its edge ids in walk
        order from its least vertex."""
        g = self.g
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


@lru_cache(maxsize=1)
def _matchings(g) -> _Matchings:
    """The matching store of ``g``.  Graphs are immutable and hash by
    identity, so consecutive solver calls on one graph share one store."""
    return _Matchings(g)


def _matching_cuts(g, holds):
    """Cuts for ``_label_search`` that keep, for each label mask in ``holds``,
    the edges whose labels lie in the mask one of the store's perfect
    matchings.

    On the domains of a branch, the edges whose whole domain lies in a mask
    are in its matching and those whose domain misses it are out.  When no
    stored matching fits, the branch is refuted; an open edge that no fitting
    matching holds leaves the mask, and one that every fitting matching
    holds takes it.  Sound whenever every labelling sought makes each mask's
    edges a perfect matching of g.
    """
    store = _matchings(g)
    holders, every = store.holders, (1 << len(store.masks)) - 1

    def cuts(dom):
        out = []
        for hold in holds:
            fit, open_ = every, []
            for e, d in enumerate(dom):
                if d & hold and d & ~hold:
                    open_.append(e)
                else:
                    fit &= holders[e] if d & hold else ~holders[e]
            if not fit:
                return None
            out += [(e, ~hold) for e in open_ if not fit & holders[e]]
            out += [(e, hold) for e in open_ if not fit & ~holders[e]]
        return out

    return cuts


@dataclass(frozen=True)
class TauResult:
    """Perfect matching index with a witness; ``tau is None`` means AboveLimit.
    ``nodes`` counts the labelling search over every k (0 when an even
    2-factor settles tau = 3)."""

    tau: int | None
    matchings: tuple
    nodes: int = 0

    @property
    def above_limit(self) -> bool:
        return self.tau is None


def perfect_matching_index(g: CubicGraph, limit: int = 5, node_limit=None) -> TauResult:
    """Smallest k <= limit with k perfect matchings covering E(g), with k such
    matchings as the witness.

    tau = 3 exactly when some 2-factor has no odd circuit: its matching and
    the two alternating halves of its circuits are three disjoint perfect
    matchings, and three perfect matchings that cover all 3n/2 edges are
    disjoint, so any two of them form an even 2-factor.  The witness is then
    the first even 2-factor of the store's walk, as (matching, the edges at
    even places of each circuit's walk, those at odd places).  Only without
    an even 2-factor does the labelling search try k = 4, ..., limit over
    ``_partition_tables(k)``; matching i of its witness is the edges whose
    label holds i.  Its cuts (``_matching_cuts``) keep each matching i one of
    the store's, so a label that no perfect matching completes fails at
    once, whatever the edge order.  A loop lies in no perfect matching, so a
    looped graph is above any limit.  ``node_limit`` bounds the labelling
    nodes over every k; an abort raises ``NodeLimitExceeded`` with the
    nodes spent.
    """
    store = _matchings(g)
    if limit < 3 or not store.masks or g.loops:
        return TauResult(None, ())
    for pm, (odd, _) in zip(store.masks, store.factors()):
        if not odd:
            halves = ([], [])
            for walk in store.factor_circuits(pm):
                halves[0].extend(walk[0::2])
                halves[1].extend(walk[1::2])
            return TauResult(3, (_edge_set(pm), *map(frozenset, halves)))
    nodes = 0
    for k in range(4, limit + 1):
        subsets, stars = _partition_tables(k)
        holds = [_mask(a for a, s in enumerate(subsets) if s >> i & 1) for i in range(k)]
        labels, nodes = _label_search(g, stars, subsets, node_limit, nodes,
                                      _matching_cuts(g, holds))
        if labels is not None:
            held = [subsets[a] for a in labels]
            return TauResult(k, tuple(frozenset(e for e in range(g.m) if held[e] >> i & 1)
                                      for i in range(k)), nodes)
    return TauResult(None, (), nodes)


def oddness(g: CubicGraph):
    """Minimum odd-component count over all 2-factors, with a witness.

    Among minimisers the witness has the fewest components in total, then is
    first in matching enumeration order.  The walk over the store's 2-factors
    stops at the first Hamiltonian one: (0 odd, 1 circuit) is the least key
    a 2-factor can have, so that one is the witness.
    """
    store = _matchings(g)
    if not store.masks:
        raise HypothesisViolated("graph has no perfect matching, hence no 2-factor")
    best = best_key = None
    for i, key in enumerate(store.factors()):
        if best is None or key < best_key:
            best, best_key = i, key
            if key == (0, 1):
                break
    return best_key[0], _edge_set(((1 << g.m) - 1) & ~store.masks[best])


# --------------------------------------------------------------------------
# circumference
# --------------------------------------------------------------------------

def circumference(g: Multigraph, node_limit=None):
    """Exact longest circuit: the first longest one of a DFS from each anchor
    v0, the least vertex of the circuits it explores, along edges in id order.

    A first pass keeps only a Hamiltonian circuit (its best starts at n - 1).
    A Hamiltonian cubic graph is 3-edge-colourable, so that pass is skipped
    for a cubic graph with no 3-edge-colouring.  Failing it, an improving
    pass stops at its first circuit of length n - 1.

    Extending the path to w, let R be the free vertices (unvisited, above v0)
    that w reaches through free vertices.  The rest of the circuit runs from
    w through R to a neighbour of v0, and each of its inner vertices has two
    neighbours in R + {w, v0}.  A branch is cut when v0 has no neighbour in
    R + {w}, or when those inner vertices cannot beat the best circuit.  Each
    extension is one node of ``node_limit``, counted over both passes.
    """
    n = g.n
    adj = [[] for _ in range(n)]
    nbrs = [0] * n
    for e, (u, v) in enumerate(g.edges):
        if u != v:
            adj[u].append((e, v))
            adj[v].append((e, u))
            nbrs[u] |= 1 << v
            nbrs[v] |= 1 << u
    best = [0, None]
    nodes = 0

    def dfs(v0, cur, visited, path_edges, path_verts, stop):
        nonlocal nodes
        length = len(path_edges)
        for e, w in adj[cur]:
            if w == v0:
                # close only with a larger edge id, so each circuit is seen once
                if e > path_edges[0] and length + 1 > best[0]:
                    best[0] = length + 1
                    best[1] = (tuple(path_edges + [e]), tuple(path_verts))
                    if best[0] == stop:
                        raise _SearchStop
                continue
            if visited >> w & 1:
                continue
            free = ~(visited | 1 << w)  # bounded by the neighbour masks
            reach, front = 0, nbrs[w] & free
            while front:
                reach |= front
                grow = 0
                while front:
                    low = front & -front
                    grow |= nbrs[low.bit_length() - 1]
                    front ^= low
                front = grow & free & ~reach
            if not nbrs[v0] & (reach | 1 << w):
                continue
            ends, inner, rest = reach | 1 << w | 1 << v0, 0, reach
            while rest:
                low = rest & -rest
                if (nbrs[low.bit_length() - 1] & ends).bit_count() >= 2:
                    inner += 1
                rest ^= low
            if length + 2 + inner <= best[0]:
                continue
            nodes += 1
            if node_limit is not None and nodes > node_limit:
                raise NodeLimitExceeded("circumference", nodes)
            path_edges.append(e)
            path_verts.append(w)
            dfs(v0, w, visited | 1 << w, path_edges, path_verts, stop)
            path_edges.pop()
            path_verts.pop()

    def search(floor, stop):
        best[0] = floor
        try:
            for v0 in range(n):
                if n - v0 <= best[0]:
                    break
                # every vertex up to v0 counts as visited
                dfs(v0, v0, (2 << v0) - 1, [], [v0], stop)
        except _SearchStop:
            pass

    if not (all(d == 3 for d in g.degrees()) and _colouring(g) is None):
        search(n - 1, n)
    if best[1] is None:
        search(0, n - 1)
    if best[1] is None:
        return 0, None
    return best[0], circuit_from_walk(*best[1])


# --------------------------------------------------------------------------
# cycle double cover search
# --------------------------------------------------------------------------

def _is_circuit(g, edges):
    """Whether the edge ids are those of one simple circuit of g."""
    try:
        return sorted(trace_circuit(g, edges).edges) == sorted(edges)
    except (IndexError, ValueError):
        return False


def find_cdc(g: CubicGraph, must_contain=(), k=None, two_factor_class=False, node_limit=None):
    """Search for a cycle double cover.

    Without ``k``: circuit-form search; the result is a ``CycleCover`` with
    every edge weight exactly 2 that holds the circuits of ``must_contain``,
    or ``None`` when the search space is exhausted (proven infeasible).  The
    forced circuits lower each edge's demand, 2 less the times they pass it,
    and the search covers every edge to its demand.  With vertex-disjoint
    forced circuits it searches only the circuits that alternate around them;
    otherwise it searches every circuit.

    With ``k``: searches for a k-class CDC (``KCdc``); classes may be empty.
    ``two_factor_class`` requires the last class to be a spanning 2-factor.
    Each edge is labelled by the pair of classes that hold it: at a vertex
    every class is used twice or not at all, so the three pairs form a
    triangle of classes, and with a 2-factor class a triangle through it.
    """
    if k is None:
        if two_factor_class:
            raise GraphError("a 2-factor class constraint needs the k-class search")
        demand = [2] * g.m
        for c in must_contain:
            if not _is_circuit(g, c.edges):
                return None  # not a circuit of g: nothing can contain it
            for e in c.edges:
                demand[e] -= 1
        if any(d < 0 for d in demand):
            return None
        forced = [e for e in range(g.m) if demand[e] < 2]
        on = {v for e in forced for v in g.edges[e]}
        rest, free = (1 << g.m) - 1, (1 << g.n) - 1
        if all(demand) and all(g.degree(v) == 3 for v in on):
            # vertex-disjoint forced circuits: at each of their vertices the
            # third edge needs two more circuits and each forced edge one, so
            # every further circuit takes the third edge and a forced edge
            rest &= ~_mask(forced)
            free &= ~_mask(on)
        space = _CircuitSpace(g, rest, free)
        eng = _CoverEngine(g, space, demand, demand, node_limit=node_limit)
        found = eng.search("first", bound=sum(demand))
        if found is None:
            return None
        return CycleCover.of([trace_circuit(g, c.edges) for c in must_contain]
                             + [space.circuit(i) for i in found])
    if must_contain:
        raise GraphError("must_contain is only available in the circuit-form search")
    if k < 2:
        raise GraphError("k-CDC search needs k >= 2")
    pairs = list(combinations(range(k), 2))
    pair_id = {p: i for i, p in enumerate(pairs)}
    tf = k - 1 if two_factor_class else None
    stars = [{pair_id[a, b], pair_id[a, c], pair_id[b, c]}
             for a, b, c in combinations(range(k), 3) if tf in (None, c)]
    # the classes other than the 2-factor class are interchangeable
    symbols = [_mask(c for c in p if c != tf) for p in pairs]
    labels, _ = _label_search(g, stars, symbols, node_limit)
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
            raise HypothesisViolated(f"only {flow_total} disjoint paths exist")
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
# edge labellings: 3-edge-colourings, Petersen colourings, k-class CDCs and
# covers by k perfect matchings
# --------------------------------------------------------------------------

def _label_search(g: Multigraph, stars, symbols=None, node_limit=None, nodes=0, cuts=None):
    """First labelling of the edges of ``g`` (loopless) in which the labels
    at every vertex of degree 3 form one of ``stars``, and the labels at any
    vertex are pairwise in a common star, with the running node count:
    (labels, nodes), or (None, nodes) when none exists (complete proof).

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
    ``nodes`` is the count spent before this search, as in ``_CoverEngine``.
    ``cuts(dom)``, when given, runs after each branch's propagation on the
    domains: None refutes the branch, else its (edge, mask) pairs narrow the
    edge's domain to the mask, and that narrowing propagates in turn.
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

    def narrow(f, d, queue):
        if d != dom[f]:
            if not d:
                return False
            trail.append((f, dom[f], -1))
            dom[f] = d
            if not d & (d - 1):
                queue.append((f, d.bit_length() - 1))
        return True

    def label(queue):
        nonlocal used
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

    def settle():
        # narrow by the caller's cuts, once
        if cuts is None:
            return True
        cut, queue = cuts(dom), []
        return cut is not None and all(narrow(f, dom[f] & d, queue) for f, d in cut) and label(queue)

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
                raise NodeLimitExceeded("labelling", nodes)
            if label([(best, a)]) and settle() and rec():
                return True
            while len(trail) > mark:
                e, dom[e], lab[e] = trail.pop()
            used = before
        return False

    found = rec()
    return (lab if found else None), nodes


def _partition_tables(k):
    """The labels and stars of a cover of E by k perfect matchings, each edge
    labelled by the set of matchings that hold it.

    At a vertex each matching holds one edge, so the three labels partition
    {0, ..., k-1}: the labels are the nonempty subsets of size at most k - 2,
    as bitmasks in ascending order, and the stars are the 3-part partitions.
    The matchings are interchangeable, so each label's symbols are its own
    bitmask.
    """
    full = (1 << k) - 1
    subsets = [s for s in range(1, full) if s.bit_count() <= k - 2]
    index = {s: i for i, s in enumerate(subsets)}
    stars = [{index[a], index[b], index[full ^ a ^ b]}
             for a, b in combinations(subsets, 2) if not a & b and b < full ^ a ^ b]
    return subsets, stars


@lru_cache(maxsize=1)
def _colouring(g):
    """The first 3-edge-colouring of ``g`` as a tuple of labels 0-2, or None
    (proven impossible; always so with a loop).  A one-graph memo like
    ``_matchings``, read by ``edge_colouring_3`` and ``circumference``."""
    if g.loops:
        return None
    labels, _ = _label_search(g, [{0, 1, 2}], symbols=[1, 2, 4])
    return None if labels is None else tuple(labels)


def edge_colouring_3(g: Multigraph):
    """Proper 3-edge-colouring as {edge: 1|2|3}, or None (proven impossible)."""
    labels = _colouring(g)
    return None if labels is None else {e: c + 1 for e, c in enumerate(labels)}

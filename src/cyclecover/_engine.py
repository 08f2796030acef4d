"""The cover engine: branch and bound over every circuit of a graph.

Only weights above 2 need it, so only ``solvers`` loads it, on first use:
``shortest_cycle_cover`` and ``edge_weight_spectrum`` with ``cap`` >= 3 and
a cap-2 optimum of 4m/3 + 2 or more, and ``enumerate_circuits``.  No module
imports it at module level, so ``import cyclecover`` does not compile it.
The searches spend the caller's ``solvers._Budget``.
"""

from __future__ import annotations

from .covers import Circuit, circuit_from_walk
from .graphs import Multigraph, _mask


# --------------------------------------------------------------------------
# circuit enumeration
# --------------------------------------------------------------------------

class _CircuitSpace:
    """The circuits of ``_circuits(g)``, as parallel arrays of bitmasks.

    Order: increasing (length, sorted edge tuple); this is also the canonical
    candidate order of the cover engine, where trying short circuits first
    keeps the lower bound tight.  ``by_edge[e]`` lists the circuits through
    edge ``e`` in that order; ``walks`` and ``vlists`` keep each walk.
    """

    __slots__ = ("g", "masks", "elists", "walks", "vlists", "lengths", "by_edge")

    def __init__(self, g: Multigraph):
        self.g = g
        raw = [(tuple(sorted(edges)), edges, verts) for edges, verts in _circuits(g)]
        raw.sort(key=lambda t: (len(t[0]), t[0]))
        self.elists = [t[0] for t in raw]
        self.walks = [t[1] for t in raw]
        self.vlists = [t[2] for t in raw]
        self.lengths = [len(t[0]) for t in raw]
        self.masks = [_mask(t[0]) for t in raw]
        by_edge = [[] for _ in range(g.m)]
        for i, edges in enumerate(self.elists):
            for e in edges:
                by_edge[e].append(i)
        self.by_edge = [tuple(lst) for lst in by_edge]

    def circuit(self, i: int) -> Circuit:
        return circuit_from_walk(self.walks[i], self.vlists[i])

    def __len__(self):
        return len(self.masks)


def _circuits(g: Multigraph):
    """Every circuit of g, for ``_deepening`` and ``_spectrum_over``; each
    once, as the (edges, vertices) walk that leaves its least edge e0 at the
    first end of e0.  (The covers with weights <= 2, and the circuit-form
    double covers, need no circuit list: see ``_every_cover`` and
    ``find_cdc``.)"""
    moves = [[] for _ in range(g.n)]  # (edge, far end) per vertex, loops left out
    for e, (u, v) in enumerate(g.edges):
        if u != v:
            moves[u].append((e, v))
            moves[v].append((e, u))
    out = []

    def extend(cur, e0, u0, visited, path_e, path_v):
        for e, y in moves[cur]:
            if e <= e0:
                continue
            if y == u0:
                out.append((path_e + [e], tuple(path_v)))
                continue
            if visited >> y & 1:
                continue
            path_e.append(e)
            path_v.append(y)
            extend(y, e0, u0, visited | 1 << y, path_e, path_v)
            path_v.pop()
            path_e.pop()

    try:
        for e0, (u0, v0) in enumerate(g.edges):
            if u0 != v0:
                extend(v0, e0, u0, (1 << u0) | (1 << v0), [e0], [u0, v0])
    finally:
        extend = None  # extend's cell holds extend: unbound, no cycle outlives the call
    return out


# --------------------------------------------------------------------------
# the cover search engine (weights above 2, only with cap >= 3)
# --------------------------------------------------------------------------

class _CoverEngine:
    """Branch and bound over circuit multisets.

    ``coverage[e]`` is the weight edge e must reach (1 for a cover),
    ``cap[e]`` the most it may take, and ``vcap[v]``, the sum of the caps at
    v, bounds the weight of vertex v.  Branches on the deficient edge whose
    ends have the least spare capacity, vcap - w(v); candidate circuits are
    tried in space order, shortest first; a tried candidate is banned for the
    rest of the node so every multiset is visited once.
    The lower bound is  (1/2) * sum_v nexteven(w(v) + deficit(v)).
    Each candidate tried is one node of ``budget``.
    """

    def __init__(self, g, space, coverage, cap, budget):
        self.g = g
        self.space = space
        self.coverage = coverage
        self.cap = cap
        self.budget = budget
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
        self.length = 0
        self.sat_mask = _mask(e for e in range(m) if cap[e] == 0)
        self.banned = [False] * len(space.masks)
        self.chosen = []

    def _c(self, v):
        x = self.wv[v] + self.deficit[v]
        return x + (x & 1)

    # -- state updates -----------------------------------------------------

    def _apply(self, ci, sign):
        g = self.g
        coverage, cap = self.coverage, self.cap
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
                if new == cap[e]:
                    self.sat_mask |= 1 << e
            else:
                if new < coverage[e]:
                    u, x = g.edges[e]
                    deficit[u] += 1
                    deficit[x] += 1
                if old == cap[e]:
                    self.sat_mask &= ~(1 << e)
        for v in self.space.vlists[ci]:
            c = self._c(v)
            self.total += c - contrib[v]
            contrib[v] = c
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

    # -- search --------------------------------------------------------------

    def covers(self, bound):
        """Every cover of length <= bound, as its tuple of circuit indices,
        in the fixed DFS order; a cover ends its branch.  Exhausting the
        generator proves there is no other."""
        self.bound = bound
        return self._dfs()

    def _dfs(self):
        e = self._pick_edge()
        if e < 0:  # no edge is short of its coverage
            yield tuple(self.chosen)
            return
        rem = self.bound - self.length
        unban = []
        lengths = self.space.lengths
        masks = self.space.masks
        banned = self.banned
        try:
            for ci in self.space.by_edge[e]:
                if lengths[ci] > rem or banned[ci]:
                    continue
                # this also keeps every vertex within vcap: where at most one
                # unit of vcap - w(v) is left, a circuit through v takes two
                # of its edges, and one of them is saturated
                if masks[ci] & self.sat_mask:
                    continue
                self.budget.spend("cover engine")
                self.chosen.append(ci)
                self._apply(ci, +1)
                if self.total // 2 <= self.bound:
                    yield from self._dfs()
                self._apply(self.chosen.pop(), -1)
                banned[ci] = True
                unban.append(ci)
        finally:
            for ci in unban:
                banned[ci] = False


def _deepening(g, cap, below, budget):
    """The optimum shorter than ``below``, the cap-2 optimum, by iterative
    deepening of the branch and bound over all circuits.  An edge of weight
    3 or more puts both its ends at weight 6 or more, so the targets start
    at 4m/3 + 2.  Returns (length, witness indices, space); length and
    witness are None when no cover is shorter."""
    space = _CircuitSpace(g)
    ones, caps = [1] * g.m, [cap] * g.m
    for target in range(2 * g.n + 2, below):
        found = next(_CoverEngine(g, space, ones, caps, budget).covers(target), None)
        if found is not None:
            return target, found, space
    return None, None, space


def _spectrum_over(space, cap, length, budget):
    """The spectrum of the covers of the optimum ``length`` over every
    circuit of ``space`` (the engine visits each multiset once, and no cover
    is shorter): the weights each edge takes, a tuple of frozensets, and the
    number of covers."""
    g = space.g
    attained = [set() for _ in range(g.m)]
    covers = 0
    for chosen in _CoverEngine(g, space, [1] * g.m, [cap] * g.m, budget).covers(length):
        covers += 1
        w = [0] * g.m
        for ci in chosen:
            for e in space.elists[ci]:
                w[e] += 1
        for e in range(g.m):
            attained[e].add(w[e])
    return tuple(frozenset(s) for s in attained), covers

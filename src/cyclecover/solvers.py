"""Exact solvers: circuits, covers, matchings, colourings, connectivity search.

Everything here is exhaustive or branch-and-bound with proofs by search
completion.  The searches of one public call spend one node budget
(``_Budget``), whose limit aborts them (``NodeLimitExceeded``), never
conflated with a proven negative answer.  All searches use fixed variable and
value orders, so results are deterministic for a given graph.

The search engines live in private leaf modules, which never import this
one: the matching sweep in ``_sweep``, the labelling search in
``_labelling``, the transition search in ``_transitions``, and the cover
engine for weights above 2 in ``_engine``, loaded on first use.
"""

from __future__ import annotations

from itertools import combinations, islice

from ._labelling import _label_search, _partition_tables
from ._sweep import _matching_sweep
from ._transitions import _decode_joins, _every_cover, _join_search, _Joins
from .covers import CycleCover, KCdc, circuit_from_walk, trace_circuit
from .errors import GraphError, HypothesisViolated, NodeLimitExceeded, _Record
from .graphs import CubicGraph, Multigraph, _mask, _one_graph_memo, _walks, bridges


class _Budget:
    """The node budget of one public call, which its searches spend in turn.

    ``spend(search)`` counts one node and raises ``NodeLimitExceeded(search,
    nodes)`` once the count passes ``limit`` (None: no limit), so ``nodes``
    is always the running total of the call, and an abort reports it.
    ``circumference`` and the circuit-form ``find_cdc`` also take a budget
    for ``node_limit`` (``of``) and spend it on, so that a construction's
    stages share one.
    """

    __slots__ = ("limit", "nodes")

    def __init__(self, limit=None):
        self.limit = float("inf") if limit is None else limit
        self.nodes = 0

    @classmethod
    def of(cls, node_limit):
        """``node_limit`` itself when it is a budget, else a new one."""
        return node_limit if isinstance(node_limit, cls) else cls(node_limit)

    def spend(self, search):
        self.nodes += 1
        if self.nodes > self.limit:
            raise NodeLimitExceeded(search, self.nodes)


# --------------------------------------------------------------------------
# circuits, shortest covers, spectra (weights above 2 through ``_engine``)
# --------------------------------------------------------------------------

def enumerate_circuits(g: Multigraph):
    """All circuits in canonical form, sorted by (length, edge ids)."""
    from ._engine import _CircuitSpace

    space = _CircuitSpace(g)
    return [space.circuit(i) for i in range(len(space))]


class SccResult(_Record):
    """A shortest cover: ``length`` (int), ``cover`` (``CycleCover``),
    ``optimal`` (bool), ``weight_cap_used`` (int), ``nodes`` (int) and
    ``stage`` (str).

    ``stage`` names the search that settled the optimum: "colouring"
    when a 3-edge-colouring gave a cover at 4m/3, else "4m/3", or "4m/3+e"
    at excess e >= 1 (``_structured_covers``), or "deepening" when a weight
    above 2 gives a shorter cover (only with ``cap`` >= 3).  ``nodes``
    counts the labelling nodes of the capped colouring search, then the
    transition and engine nodes."""

    __slots__ = ("length", "cover", "optimal", "weight_cap_used", "nodes", "stage")


def _stage(g, length):
    return f"4m/3+{length - 2 * g.n}" if length > 2 * g.n else "4m/3"


def _check_coverable(g):
    b = bridges(g)
    if b:
        raise HypothesisViolated(f"no cycle cover exists: bridge(s) at edges {b}")


def _structured_covers(g, budget, first=False):
    """The shortest covers with weights <= 2, found through their weight-1 edges.

    Let X be the vertices of weight 6.  Their edges have weight 2 and every
    other vertex has edge weights 1, 1, 2, so the weight-1 edges form a
    2-regular subgraph missing exactly X, and the length is 2n + |X|
    (2n = 4m/3), at most 3n.  The levels |X| = 0, 1, ... are searched in
    turn, each by the joint transition search ``_every_cover``, until one
    holds a cover, all from one ``budget``; ``first`` keeps only the first
    cover of that level.

    Returns (length, covers): ``covers`` lists each cover as (weight-1 edge
    mask, run of options, which ``_decode_joins`` turns into its circuits),
    only the first one with ``first``.
    """
    for excess in range(g.n + 1):
        found = _every_cover(g, excess, budget)
        covers = list(islice(found, 1) if first else found)
        if covers:
            return 2 * g.n + excess, covers
    raise AssertionError("no cover with weights <= 2")


def shortest_cycle_cover(g: CubicGraph, cap: int = 2, node_limit=None) -> SccResult:
    """Minimum-length cycle cover subject to every edge weight <= cap.

    The colouring search of ``_colouring`` runs first, capped at 4m nodes;
    a colouring found gives the least length, 4m/3, by the colour pairs
    (0, 2) and (1, 2), and is kept in ``_colouring``'s memo.  Reaching the
    cap proves nothing, so the witness is then the first cover of
    ``_structured_covers``, the cap-2 optimum 4m/3 + e.  With ``cap`` >= 3
    and e >= 3, ``_deepening`` then looks for a shorter cover with a weight
    above 2, and its witness wins.  Every stage spends one budget of
    ``node_limit`` nodes, and no memo read can change the result.
    """
    if cap < 2:
        raise ValueError("no cycle cover of a cubic graph has all weights below 2")
    _check_coverable(g)
    budget = _Budget(node_limit)
    limit, budget.limit = budget.limit, min(budget.limit, 4 * g.m)
    try:
        colours = _label_search(g, [{0, 1, 2}], budget, [1, 2, 4])
    except NodeLimitExceeded:
        if budget.nodes > limit:
            raise
        colours = None  # the cap, not node_limit: a miss
    budget.limit = limit
    if colours is not None:
        _colouring.keep(g, tuple(colours))
        length, cover, stage = 2 * g.n, _colouring_cover(g, colours, ((0, 2), (1, 2))), "colouring"
    else:
        length, [(_, run)] = _structured_covers(g, budget, first=True)
        cover, stage = _decode_joins(g, run), _stage(g, length)
    if cap > 2 and length > 2 * g.n + 2:
        from ._engine import _deepening

        shorter, found, space = _deepening(g, cap, length, budget)
        if found is not None:
            length, cover, stage = shorter, CycleCover.of(map(space.circuit, found)), "deepening"
    assert cover.length == length
    return SccResult(length, cover, True, cap, budget.nodes, stage)


def _colouring_cover(g, label, classes) -> CycleCover:
    """The pullback of an edge labelling: the circuits (``_walks``, unchecked)
    of each class's preimage, the edges e with ``label[e]`` in it, which must
    be 2-regular, as when every vertex star of g lands on a star of the
    target.  Of a 3-edge-colouring's colour pairs, two that share a colour
    give a cover of length 4m/3 (weight 2 on that colour), all three a CDC."""
    return CycleCover.of(circuit_from_walk(*walk) for cls in classes
                         for walk in _walks(g, _mask(e for e in range(g.m) if label[e] in cls)))


class WeightSpectrum(_Record):
    """The weights of every optimal cover: ``optimal_length`` (int),
    ``per_edge`` (a tuple of frozensets, the weights edge e takes),
    ``n_optimal_covers`` (int), ``nodes`` (int) and ``stage`` (str).

    ``stage`` names the search that settled the optimum, as in
    ``SccResult``, and is "deepening" whenever the cover engine enumerated
    the covers.  ``nodes`` counts the transition choices of weight-2 edges
    that the joint search tried, then the engine nodes."""

    __slots__ = ("optimal_length", "per_edge", "n_optimal_covers", "nodes", "stage")


def edge_weight_spectrum(g: CubicGraph, cap: int = 2, node_limit=None) -> WeightSpectrum:
    """Weights attained per edge over all optimal covers (same cap and rules).

    Each optimal cover with weights <= 2 comes once from
    ``_structured_covers``, whose joint search picks the weight-2 edges and
    their transitions together and builds no matching store; such a cover
    has weight 1 on its weight-1 edges and 2 elsewhere.  With ``cap`` >= 3
    and a cap-2 optimum of 4m/3 + 2 or more, a weight above 2 may give
    covers as short (see ``_deepening``), so the engine enumerates every
    cover of the optimum over all circuits.  ``nodes`` counts the search
    nodes of every stage, all within one ``node_limit``.
    """
    if cap < 2:
        raise ValueError("no cycle cover of a cubic graph has all weights below 2")
    _check_coverable(g)
    budget = _Budget(node_limit)
    length, covers = _structured_covers(g, budget)
    if cap == 2 or length < 2 * g.n + 2:
        one = two = 0  # the edges of weight 1, and of weight 2, in some cover
        for ones, _ in covers:
            one |= ones
            two |= ~ones
        per_edge = tuple(frozenset(w for w, held in ((1, one), (2, two)) if held >> e & 1)
                         for e in range(g.m))
        return WeightSpectrum(length, per_edge, len(covers), budget.nodes, _stage(g, length))
    from ._engine import _deepening, _spectrum_over

    shorter, _, space = _deepening(g, cap, length, budget)
    length = shorter or length
    per_edge, covers = _spectrum_over(space, cap, length, budget)
    return WeightSpectrum(length, per_edge, covers, budget.nodes, "deepening")


# --------------------------------------------------------------------------
# perfect matchings, tau, oddness
# --------------------------------------------------------------------------

def enumerate_perfect_matchings(g: Multigraph):
    """All perfect matchings as frozensets of edge ids, sorted by their
    sorted edge tuples: g's one matching store (``_Matchings``), which tau,
    oddness and the labelling cuts read too.  A read-only sequence whose
    ``len`` is the sweep's count, with no listing, whose matchings are made
    as they are read, and which equals the list of the same matchings."""
    return _matching_sweep(g)


def _matchings(g):
    """g's matching store: the held one, else built by the public call, so
    a tracer that wraps ``enumerate_perfect_matchings`` counts each graph's
    store once, when it is built, and no later read."""
    store = _matching_sweep.held(g)
    return enumerate_perfect_matchings(g) if store is None else store


def _matching_cuts(g, holds):
    """Cuts for ``_label_search`` that keep, for each label mask in ``holds``,
    the edges whose labels lie in the mask one of the store's perfect
    matchings.

    On the domains of a branch, the edges whose whole domain lies in a mask
    are in its matching and those whose domain misses it are out, so the
    stored matchings that fit the mask are the AND of those edges' holder
    masks and of their complements.  Edges with one domain fall on one side
    of every mask together, so each call first ANDs the holder masks of the
    edges of each domain met (a label alone, mostly) into an inside and an
    outside mask, and each mask then takes one of the two per domain.  When
    no stored matching fits, the branch is refuted; an open edge (its domain
    on both sides) that no fitting matching holds leaves the mask, and one
    that every fitting matching holds takes it, in edge order.  Sound
    whenever every labelling sought makes each mask's edges a perfect
    matching of g.
    """
    store = _matchings(g)
    holders, every = store.holders, (1 << len(store)) - 1

    def cuts(dom):
        groups = {}  # domain: [AND of holders, AND of complements, edges]
        for e, d in enumerate(dom):
            h, group = holders[e], groups.get(d)
            if group is None:
                groups[d] = [h, ~h, [e]]
            else:
                group[0] &= h
                group[1] &= ~h
                group[2].append(e)
        out = []
        for hold in holds:
            fit, open_ = every, []
            for d, (inside, outside, edges) in groups.items():
                if not d & ~hold:
                    fit &= inside
                elif not d & hold:
                    fit &= outside
                else:
                    open_ += edges
            if not fit:
                return None
            open_.sort()
            out += [(e, ~hold) for e in open_ if not fit & holders[e]]
            out += [(e, hold) for e in open_ if not fit & ~holders[e]]
        return out

    return cuts


class TauResult(_Record):
    """Perfect matching index with a witness: ``tau`` (int, or None for
    AboveLimit), ``matchings`` (a tuple of frozensets) and ``nodes`` (int,
    default 0), which counts the labelling search over every k (0 when an
    even 2-factor settles tau = 3)."""

    __slots__ = ("tau", "matchings", "nodes")
    _defaults = {"nodes": 0}

    @property
    def above_limit(self) -> bool:
        return self.tau is None


def perfect_matching_index(g: CubicGraph, limit: int = 5, node_limit=None) -> TauResult:
    """Smallest k <= limit with k perfect matchings covering E(g), with k such
    matchings as the witness.

    tau = 3 exactly when some 2-factor has no odd circuit: its matching and
    the two alternating halves of its circuits are three disjoint perfect
    matchings, and three perfect matchings that cover all 3n/2 edges are
    disjoint, so any two of them form an even 2-factor.  The store's least
    2-factor (``_Matchings.least``) has the fewest odd circuits, so tau = 3
    exactly when it has none, and the witness is then that 2-factor, as
    (matching, the edges at even places of each circuit's walk, those at odd
    places), read off the walks the store keeps.  Only without an even
    2-factor does the labelling search try k = 4, ..., limit over
    ``_partition_tables(k)``; matching i of its witness is the edges whose
    label holds i.  Its cuts (``_matching_cuts``) keep each matching i one of
    the store's, so a label that no perfect matching completes fails at
    once, whatever the edge order.  An edge that no perfect matching holds
    (a loop, or an edge beside a bridge) puts tau above any limit, with no
    search.  The labelling nodes over every k spend one budget of
    ``node_limit`` nodes; an abort raises ``NodeLimitExceeded`` with the
    nodes spent.
    """
    store = _matchings(g)
    if limit < 3 or not store:
        return TauResult(None, ())
    i, (odd, _), walks = store.least()
    if not odd:
        halves = [frozenset(e for edges, _ in walks for e in edges[at::2]) for at in (0, 1)]
        return TauResult(3, (store[i], *halves))
    if not all(store.holders):
        return TauResult(None, ())  # an edge in no perfect matching
    budget = _Budget(node_limit)
    for k in range(4, limit + 1):
        subsets, stars = _partition_tables(k)
        holds = [_mask(a for a, s in enumerate(subsets) if s >> i & 1) for i in range(k)]
        labels = _label_search(g, stars, budget, subsets, _matching_cuts(g, holds))
        if labels is not None:
            held = [subsets[a] for a in labels]
            return TauResult(k, tuple(frozenset(e for e in range(g.m) if held[e] >> i & 1)
                                      for i in range(k)), budget.nodes)
    return TauResult(None, (), budget.nodes)


def oddness(g: CubicGraph):
    """Minimum odd-component count over all 2-factors, with a witness.

    Among minimisers the witness has the fewest components in total, then is
    first in matching enumeration order: the store's least 2-factor
    (``_Matchings.least``), which tau reads too.
    """
    store = _matchings(g)
    if not store:
        raise HypothesisViolated("graph has no perfect matching, hence no 2-factor")
    i, (odd, _), _ = store.least()
    return odd, frozenset(range(g.m)) - store[i]


# --------------------------------------------------------------------------
# circumference
# --------------------------------------------------------------------------

def circumference(g: Multigraph, node_limit=None):
    """Exact longest circuit, with a witness.

    On a cubic graph the 3-edge-colouring comes first: when the 2-factor
    left by one of its colour classes (colour 0, 1, 2 in turn) is a single
    circuit, that Hamiltonian circuit is the answer, with no DFS.  With no
    ``node_limit`` it is read from ``_colouring``'s memo; under a limit its
    labelling search spends the call's budget first, reads no memo and
    keeps its result in that memo.
    Otherwise the witness is the first longest circuit of a DFS from each
    anchor v0, the least vertex of the circuits it explores, along edges in
    id order.  A first pass keeps only a Hamiltonian circuit (its best
    starts at n - 1).  A Hamiltonian cubic graph is 3-edge-colourable, so
    that pass is skipped for a cubic graph with no 3-edge-colouring.
    Failing it, an improving pass stops at its first circuit of length
    n - 1.

    Extending the path to w, let R be the free vertices (unvisited, above v0)
    that w reaches through free vertices.  The rest of the circuit runs from
    w through R to a neighbour of v0, and each of its inner vertices has two
    neighbours in R + {w, v0}.  A branch is cut when v0 has no neighbour in
    R + {w}, or when those inner vertices cannot beat the best circuit.  Each
    extension is one node of the same budget, spent over both passes; the
    DFS returns True to stop its pass.
    """
    n = g.n
    cubic = all(d == 3 for d in g.degrees())
    budget = _Budget.of(node_limit)
    if cubic and budget.limit < float("inf"):  # the colouring spends the budget, reading no memo
        labels = None if g.loops else _label_search(g, [{0, 1, 2}], budget, [1, 2, 4])
        colours = None if labels is None else tuple(labels)
        _colouring.keep(g, colours)
    else:
        colours = _colouring(g) if cubic else None
    if colours is not None:
        for c in range(3):
            walks = _walks(g, _mask(e for e in range(g.m) if colours[e] != c))
            if len(walks) == 1:
                return n, circuit_from_walk(*walks[0])
    adj = [[] for _ in range(n)]
    nbrs = [0] * n
    for e, (u, v) in enumerate(g.edges):
        if u != v:
            adj[u].append((e, v))
            adj[v].append((e, u))
            nbrs[u] |= 1 << v
            nbrs[v] |= 1 << u
    best = [0, None]
    spend = budget.spend

    def dfs(v0, cur, visited, path_edges, path_verts, stop):
        length = len(path_edges)
        for e, w in adj[cur]:
            if w == v0:
                # close only with a larger edge id, so each circuit is seen once
                if e > path_edges[0] and length + 1 > best[0]:
                    best[0] = length + 1
                    best[1] = (tuple(path_edges + [e]), tuple(path_verts))
                    if best[0] == stop:
                        return True
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
            spend("circumference")
            path_edges.append(e)
            path_verts.append(w)
            if dfs(v0, w, visited | 1 << w, path_edges, path_verts, stop):
                return True
            path_edges.pop()
            path_verts.pop()
        return False

    def search(floor, stop):
        best[0] = floor
        for v0 in range(n):
            # every vertex up to v0 counts as visited
            if n - v0 <= best[0] or dfs(v0, v0, (2 << v0) - 1, [], [v0], stop):
                break

    try:
        if not (cubic and colours is None):
            search(n - 1, n)
        if best[1] is None:
            search(0, n - 1)
    finally:
        dfs = None  # dfs's cell holds dfs, which search calls: unbound, even on an abort
    if best[1] is None:
        return 0, None
    return best[0], circuit_from_walk(*best[1])


# --------------------------------------------------------------------------
# cycle double cover search
# --------------------------------------------------------------------------

def _bfs_edges(g):
    """The edge ids of g in the order a breadth-first search meets them,
    from vertex 0 and then from each vertex it has not reached."""
    order, reached = {}, set()
    for root in range(g.n):
        queue = [] if root in reached else [root]
        reached.add(root)
        for v in queue:
            for e in g.incident_edges[v]:
                order.setdefault(e)
                w = g.other_end(e, v)
                if w not in reached:
                    reached.add(w)
                    queue.append(w)
    return list(order)


def find_cdc(g: CubicGraph, must_contain=(), k=None, two_factor_class=False, node_limit=None):
    """Search for a cycle double cover.

    Without ``k``: circuit-form search; the result is a ``CycleCover`` with
    every edge weight exactly 2 that holds the circuits of ``must_contain``,
    or ``None`` when the search space is exhausted (proven infeasible).  The
    three circuits of a CDC through a vertex take its three pairs of edges
    once each, so the CDCs of g are its covers in which every vertex has
    weight 6: one ``_join_search`` over ``_Joins(g, V)``, one transition
    choice per edge, in ``_bfs_edges`` order.  A forced circuit pins each of
    its edges to the choice that joins its own transitions (only its edge
    set counts), and no CDC takes a transition twice.

    With ``k``: searches for a k-class CDC (``KCdc``); classes may be empty.
    ``two_factor_class`` requires the last class to be a spanning 2-factor.
    Each edge is labelled by the pair of classes that hold it: at a vertex
    every class is used twice or not at all, so the three pairs form a
    triangle of classes, and with a 2-factor class a triangle through it.
    Each edge lies in two classes, and a nonempty class of a loopless g
    has two edges or more, so at most m classes are nonempty: the search
    uses min(k, m) classes, and empty ones make up the rest, placed before
    a 2-factor class.
    """
    if k is None:
        if two_factor_class:
            raise GraphError("a 2-factor class constraint needs the k-class search")
        if bridges(g):
            return None  # no circuit passes a bridge
        pins, taken = {}, set()
        for c in must_contain:
            try:
                walk = trace_circuit(g, c.edges)
            except ValueError:
                return None  # not a circuit of g: nothing can contain it
            if sorted(walk.edges) != sorted(c.edges):
                return None
            for i, e in enumerate(walk.edges):
                # at each end of e, the place of the circuit's edge there among
                # e's other edges: the same place at both ends is e's choice 0
                # (``_Joins.pair``), which joins them in order
                j = (i + 1) % len(walk)
                at = {walk.vertices[i]: walk.edges[i - 1], walk.vertices[j]: walk.edges[j]}
                s0, s1 = ([f for f in g.incident_edges[v] if f != e].index(at[v])
                          for v in g.edges[e])
                if (e, s0) in taken or pins.setdefault(e, s0 ^ s1) != s0 ^ s1:
                    return None  # a transition taken twice, or two that no choice holds
                taken.add((e, s0))
        found = next(_join_search(_Joins(g, range(g.n)), _bfs_edges(g), 0,
                                  _Budget.of(node_limit), pins), None)
        return None if found is None else _decode_joins(g, found[1])
    if must_contain:
        raise GraphError("must_contain is only available in the circuit-form search")
    if k < 2:
        raise GraphError("k-CDC search needs k >= 2")
    used = min(k, g.m)
    pairs = list(combinations(range(used), 2))
    pair_id = {p: i for i, p in enumerate(pairs)}
    tf = used - 1 if two_factor_class else None
    stars = [{pair_id[a, b], pair_id[a, c], pair_id[b, c]}
             for a, b, c in combinations(range(used), 3) if tf in (None, c)]
    # the classes other than the 2-factor class are interchangeable
    symbols = [_mask(c for c in p if c != tf) for p in pairs]
    labels = _label_search(g, stars, _Budget(node_limit), symbols)
    if labels is None:
        return None
    classes = [frozenset(e for e in range(g.m) if c in pairs[labels[e]]) for c in range(used)]
    at = used if tf is None else tf
    classes[at:at] = [frozenset()] * (k - used)
    return KCdc.of(classes)


# --------------------------------------------------------------------------
# disjoint paths in the contracted multigraph
# --------------------------------------------------------------------------

def three_disjoint_paths(mg: Multigraph, s: int, t: int):
    """Three edge-disjoint s-t paths of minimal total edge count.

    These are the contracted images of vertex-disjoint paths of the parent
    cubic graph: paths may share an intermediate vertex of the multigraph but
    never an edge.  Unit-capacity min-cost flow (successive shortest paths).
    """
    if not (0 <= s < mg.n and 0 <= t < mg.n):
        raise ValueError(f"endpoints {s}, {t} must be vertices 0..{mg.n - 1}")
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
# 3-edge-colourings (the labelling search itself is in ``_labelling``)
# --------------------------------------------------------------------------

@_one_graph_memo
def _colouring(g):
    """The first 3-edge-colouring of ``g`` as a tuple of labels 0-2, or None
    (proven impossible; always so with a loop).  A one-graph memo like
    ``_matching_sweep``, read by ``edge_colouring_3`` and ``circumference``;
    ``shortest_cycle_cover`` keeps here what its capped run of this search
    finds, the same colouring, since the search is deterministic.

    A loopless cubic graph is 3-edge-colourable exactly when some 2-factor is
    even (two colour classes form one; an even 2-factor's circuits coloured
    alternately, with its matching, give a colouring).  So when g's store is
    held and its least 2-factor, already walked, has an odd circuit (as after
    ``oddness`` or tau on a snark), the answer is None with no search; this
    never starts the walk.
    """
    if g.loops:
        return None
    least = None if (store := _matching_sweep.held(g)) is None else store._least
    if least and least[1][0] and all(d == 3 for d in g.degrees()):
        return None
    labels = _label_search(g, [{0, 1, 2}], _Budget(), [1, 2, 4])
    return None if labels is None else tuple(labels)


def edge_colouring_3(g: Multigraph):
    """Proper 3-edge-colouring as {edge: 1|2|3}, or None (proven impossible)."""
    labels = _colouring(g)
    return None if labels is None else {e: c + 1 for e, c in enumerate(labels)}

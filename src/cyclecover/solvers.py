"""Exact solvers: circuits, covers, matchings, colourings, connectivity search.

Everything here is exhaustive or branch-and-bound with proofs by search
completion.  The searches of one public call spend one node budget
(``_Budget``), whose limit aborts them (``NodeLimitExceeded``), never
conflated with a proven negative answer.  All searches use fixed variable and
value orders, so results are deterministic for a given graph.
"""

from __future__ import annotations

from collections.abc import Sequence
from heapq import heappop, heappush
from itertools import combinations, compress, islice

from .covers import CycleCover, KCdc, circuit_from_walk, trace_circuit
from .errors import GraphError, HypothesisViolated, NodeLimitExceeded, _Record
from .graphs import CubicGraph, Multigraph, _mask, _one_graph_memo, _walks, bridges


class _Budget:
    """The node budget of one public call, which its searches spend in turn.

    ``spend(search)`` counts one node and raises ``NodeLimitExceeded(search,
    nodes)`` once the count passes ``limit`` (None: no limit), so ``nodes``
    is always the running total of the call, and an abort reports it.
    """

    __slots__ = ("limit", "nodes")

    def __init__(self, limit=None):
        self.limit = float("inf") if limit is None else limit
        self.nodes = 0

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


class _Joins:
    """The transition choices of a loopless cubic graph g, which do not
    depend on the weight-1 edges, and the start of every search over them;
    with X, those of the truncation T_X, where each x in X is a triangle on
    its three edge ends.  T_X keeps g's edge ids, orientations and m (so
    ``_join_search`` yields masks of g's edges); x stays as the end of its
    first edge, the ends of its other two take new ids from n up, and the
    triangle edges (a, b), (a, c), (b, c) over its ends in incident-edge
    order take ids from m up.  ``ends`` and ``incident`` are T_X's edges
    and incidence lists in id order, g's own with X empty.  So at each end
    of an edge e of g the triangle edges come in the id order of g's other
    edges there, and ``pair(e)`` pairs g's transitions at e's ends as X = ()
    pairs the half-edges.

    A half-edge h = 2e + s is the end of edge e at ``ends[e][s]``.  When
    an edge r = uv has weight 2 in a cover whose vertices all have weight 4,
    its two other edges at u and its two at v have weight 1, and the two
    circuits through r pair the half-edges of those at u with those at v:
    in order, or crossed.  A choice is the tuple of these two joins
    (half-edge, half-edge).  With an edge's other edges in id order, choice
    0 joins them in order and choice 1 crossed.

    Options for ``_join_search`` are (vertex bit, weight-2 edge, choice):
    ``pair(r)`` gives r's two.  ``frame(blocked)`` is the matching frame at
    the free vertices ~blocked: the bit of the vertex v it picks and v's
    options, the two of each edge from v to a free vertex with the bit of
    its far end, or (0, ()) where the pick meets a free vertex with no free
    neighbour.  Both are built on first use, so a search pays only for the
    edges and frames it meets.  A frame depends only on the table and
    ``blocked``, which holds every vertex outside the search's space, so
    ``frames`` memoises it for every search over the table (the program
    keeps none, so one), whatever its space.  ``near[v]`` is v's neighbour
    mask; ``opp`` and ``vm`` are the chains before any join (see
    ``_join_search``).
    """

    __slots__ = ("m", "ends", "incident", "near", "opp", "vm", "frames", "_pairs")

    def __init__(self, g, X=()):
        ends, incident, n = g.edges, g.incident_edges, g.n
        if X:
            ends, incident = [list(uv) for uv in ends], list(incident)
            for x in X:
                e0, e1, e2 = g.incident_edges[x]
                b, c, t = n, n + 1, len(ends)
                for e, y in ((e1, b), (e2, c)):
                    ends[e][ends[e].index(x)] = y
                ends += ((x, b), (x, c), (b, c))
                incident[x] = (e0, t, t + 1)
                incident += ((e1, t, t + 2), (e2, t + 1, t + 2))
                n += 2
        self.m, self.ends, self.incident, size = g.m, ends, incident, 2 * len(ends)
        self.near = [0] * n
        for u, v in ends:
            self.near[u] |= 1 << v
            self.near[v] |= 1 << u
        self.opp, self.vm = [0] * size, [0] * size
        self.opp[0::2], self.opp[1::2] = range(1, size, 2), range(0, size, 2)
        self.vm[0::2] = self.vm[1::2] = [1 << u | 1 << v for u, v in ends]
        self._pairs, self.frames = [None] * len(ends), {}

    def pair(self, r):
        if self._pairs[r] is None:
            ends = self.ends
            (a0, a1), (b0, b1) = ([2 * f + (ends[f][0] != v) for f in self.incident[v]
                                   if f != r] for v in ends[r])
            self._pairs[r] = ((0, r, ((a0, b0), (a1, b1))), (0, r, ((a0, b1), (a1, b0))))
        return self._pairs[r]

    def frame(self, blocked):
        # the free vertex with the fewest free neighbours, the least on a
        # tie; the scan stops at the first with none (a dead end) or one
        free, near, fewest = ~blocked, self.near, (4, -1)
        for v in range(free.bit_length()):
            if free >> v & 1:
                k = (free & near[v]).bit_count()
                if k < fewest[0]:
                    fewest = k, v
                    if k <= 1:
                        break
        k, v = fewest
        ends = self.ends
        found = (1 << v, [(bit, e, choice) for e in self.incident[v]
                          for bit in (1 << ends[e][ends[e][0] == v],) if free & bit
                          for _, _, choice in self.pair(e)]) if k else (0, ())
        self.frames[blocked] = found
        return found


def _join_search(table, edges, space, budget, pins=None):
    """Every run of choices that keeps each circuit off a repeated vertex:
    one option of each edge of ``edges`` in turn, from its two or the one
    that ``pins`` names, then a perfect matching of the vertex mask
    ``space`` with one choice per matching edge.  Yields each as (weight-1
    edge mask, run of options).

    The matching grows on the free vertex with the fewest free neighbours,
    backing up at one with none; the edges to its free neighbours are tried
    with their two choices at once.  That pick depends only on the blocked
    vertices (matched, or outside ``space``), and a search meets few
    distinct masks of them in many nodes (hundreds on J7 and J9 against
    hundreds of thousands of nodes), so each frame looks its pick and
    options up in the table's memo (``_Joins.frame``), which scans only on
    a miss.  Joined weight-1 edges form chains, and each free end h of a
    chain holds the chain's other free end ``opp[h]`` and its vertex mask
    ``vm[h]``, so a join that closes a chain is a circuit, and one that
    links two chains whose masks meet is refused with its whole choice.
    The trail records each link as its two joined ends, whose entries keep
    the old chain ends, so a frame takes its choice back before trying the
    next.  One frame per edge of ``edges`` or matching edge (a dead end's
    frame has no options), on an explicit stack; a node is one option
    tried.  The hot loop counts nodes in a local copy of ``budget.nodes``:
    it writes the count back before each yield (and reads it again after),
    at its end and before an abort.
    """
    frames, full = table.frames, (1 << table.m) - 1
    order = [(table.pair(e)[pins[e]],) if pins and e in pins else table.pair(e) for e in edges]
    opp, vm, trail = table.opp[:], table.vm[:], []
    fixed = len(order)
    size = fixed + space.bit_count() // 2 + 1
    # per frame: its options left, the vertices out of reach (matched, or
    # outside space) and the trail length before its choice, and its choice
    options, blocks, marks, chosen = [None] * size, [0] * size, [0] * size, [None] * size
    depth, blocked = 0, ~space
    nodes, limit = budget.nodes, budget.limit
    push = iter(order[0]) if fixed else None
    while True:
        if push is None:
            if blocked == -1:
                run, held = chosen[:depth], 0
                for _, r, _ in run:
                    held |= 1 << r
                budget.nodes = nodes
                yield full & ~held, run
                nodes = budget.nodes
            else:
                bit, found = frames.get(blocked) or table.frame(blocked)
                blocked |= bit
                push = iter(found)
        if push is not None:
            options[depth], blocks[depth], marks[depth] = push, blocked, len(trail)
            depth += 1
        # advance the top frame to its next accepted option, popping spent ones
        while depth:
            top = depth - 1
            mark, blocked = marks[top], blocks[top]
            while len(trail) > mark:
                p, q = trail.pop()
                P, Q = opp[p], opp[q]
                opp[P], opp[Q] = p, q
                vm[P], vm[Q] = vm[p], vm[q]
            for option in options[top]:
                nodes += 1
                if nodes > limit:
                    budget.nodes = nodes
                    raise NodeLimitExceeded("transitions", nodes)
                bit, _, ((p, q), (p2, q2)) = option
                P = opp[p]
                if P != q:  # else the join closes p's chain into a circuit
                    a, b = vm[p], vm[q]
                    if a & b:
                        continue
                    Q = opp[q]
                    opp[P], opp[Q] = Q, P
                    vm[P] = vm[Q] = a | b
                    trail.append((p, q))
                P = opp[p2]
                if P != q2:
                    a, b = vm[p2], vm[q2]
                    if a & b:
                        if len(trail) > mark:  # take the first join back
                            p, q = trail.pop()
                            P, Q = opp[p], opp[q]
                            opp[P], opp[Q] = p, q
                            vm[P], vm[Q] = vm[p], vm[q]
                        continue
                    Q = opp[q2]
                    opp[P], opp[Q] = Q, P
                    vm[P] = vm[Q] = a | b
                    trail.append((p2, q2))
                chosen[top] = option
                blocked |= bit
                break
            else:
                depth = top
                continue
            push = iter(order[depth]) if depth < fixed else None
            break
        else:
            budget.nodes = nodes
            return


def _every_cover(g, excess, budget):
    """Every cover with weights <= 2 at one excess, yielded as (weight-1
    edge mask, run of options).

    The vertex set X of weight 6 runs over the sets of that size in
    ``combinations`` order; its covers are those of T_X of length
    4|E(T_X)|/3 whose weight-1 edges hold the triangles.  The search over
    a fresh ``_Joins(g, X)`` takes the edges at X first, in X's order, then
    covers G - X - N(X); a vertex outside X has one edge of weight 2, so it
    may have only one edge end in X.  X = () is one perfect matching search.
    """
    everyone = (1 << g.n) - 1
    for X in combinations(range(g.n), excess):
        inside = _mask(X)
        edges = dict.fromkeys(e for x in X for e in g.incident_edges[x])
        out = [v for e in edges for v in g.edges[e] if not inside >> v & 1]
        if len(set(out)) == len(out):
            yield from _join_search(_Joins(g, X), edges, everyone & ~(inside | _mask(out)),
                                    budget)


def _decode_joins(g, run):
    """The cover of g that a run of options gives: walk from each unseen
    half-edge along its edge, then through the join at the far end and the
    weight-2 edge of its option, noting the vertex of g each edge leaves.
    A truncation keeps g's edge ids and orientations, so half-edge h leaves
    ``g.edges[h >> 1][h & 1]``, and a join's first half-edge lies at the
    first end of its weight-2 edge (``_Joins.pair``).  Edges from g.m up
    are a truncation's triangle edges, which the circuits of g leave out."""
    ends, m = g.edges, g.m
    mate, strand = {}, {}  # half-edge: joined half-edge; (weight-2 edge, vertex it leaves)
    for _, r, joins in run:
        u, v = ends[r]
        for p, q in joins:
            mate[p], mate[q] = q, p
            strand[p], strand[q] = (r, u), (r, v)
    circuits, seen = [], set()
    for start in mate:
        p, edges, verts = start, [], []
        while p not in seen:
            t, e = p ^ 1, p >> 1
            seen.update((p, t))
            if e < m:
                edges.append(e)
                verts.append(ends[e][p & 1])
            r, v = strand[t]
            edges.append(r)
            verts.append(v)
            p = mate[t]
        if edges:
            circuits.append(circuit_from_walk(edges, verts))
    return CycleCover.of(circuits)


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

_BITS = bytes.maketrans(b"01", b"\0\1")  # a bit string's digits as 0/1 bytes


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


def _decoded(key, m):
    """The matching of a sweep key, as a frozenset of edge ids."""
    return frozenset(compress(range(m), format(key >> m, f"0{m}b").encode().translate(_BITS)))


@_one_graph_memo
def _matching_sweep(g):
    """The matching store of g over the keys of its perfect matchings, in
    the order of their sorted edge tuples: a matching's key has bit e and bit
    2m - 1 - e for each of its edges e.  Memoised for the last graph, so
    every reader of g's matchings reads one store;
    ``_matching_sweep.held(g)`` reads it only if it is already built.

    One tuple sorts before another exactly when the least edge in their
    symmetric difference lies in it, and that edge is the highest bit in
    which the two keys differ, so the order is the keys' descending order.
    The high half, shifted down by m, holds edge e as the bit string's digit
    e; the low half is the matching's edge mask.

    The sweep is the path-decomposition dynamic programme (Bodlaender, "A
    tourist guide through treewidth", Acta Cybernetica 11, 1993).  The
    vertices are placed in turn from vertex 0: each step places the vertex
    next to the placed ones whose placing leaves the fewest unplaced vertices
    next to them, the least id on ties, or the least unplaced vertex when
    none is next to them.  With the vertex bits renumbered in that order, a
    state is a free-vertex mask whose lowest free vertex is matched with each
    free neighbour (its options), so the placed prefix is all matched and a
    state differs only in which vertices next to it are taken.  ``rec(free)``
    memoises the number of its completions and their greatest key (-1 with
    none).  ``_Deviations.of(free)``, which the walk reads after the call,
    lists, greatest first, the other completions of ``free`` by where they
    leave its greatest one: each state on that path and each other option
    taken there, as (their greatest key, the key of the edges down to the
    option's state, that state).
    """
    n, m = g.n, g.m
    near = [0] * n
    for u, v in g.edges:
        if u != v:
            near[u] |= 1 << v
            near[v] |= 1 << u
    pos, placed, front = [0] * n, 0, 0
    for i in range(n):
        fewest, y = n, front
        while y:
            bit = y & -y
            v = bit.bit_length() - 1
            size = ((front | near[v]) & ~(placed | bit)).bit_count()
            if size < fewest:
                best, fewest = v, size
            y ^= bit
        if not front:
            best = (~placed & (placed + 1)).bit_length() - 1
        pos[best] = i
        placed |= 1 << best
        front = (front | near[best]) & ~placed
    options = [[] for _ in range(n)]  # (far end bit, edge key) of each later neighbour
    for e, (u, v) in enumerate(g.edges):
        if u != v:
            a, b = sorted((pos[u], pos[v]))
            options[a].append((1 << b, 1 << e | 1 << (2 * m - 1 - e)))
    memo = {0: (1, 0)}

    def rec(free):
        low = free & -free
        rest, count, top = free ^ low, 0, -1
        for bit, key in options[low.bit_length() - 1]:
            if rest & bit:
                sub = rest ^ bit
                c, t = memo.get(sub) or rec(sub)
                if c:
                    count += c
                    if key | t > top:
                        top = key | t
        memo[free] = out = count, top
        return out

    root = (1 << n) - 1
    try:
        count, top = memo.get(root) or rec(root)
    finally:
        rec = None  # rec's cell holds rec: unbound, no cycle outlives the call
    return _Matchings(g, count, _greatest_first(top, root, _Deviations(memo, options).of))


class _Deviations:
    """``of(free)``: the deviation lists of ``_matching_sweep``, memoised in
    ``devs``, over its sweep's ``memo`` and ``options``.  The walk reads them
    for as long as its keys are read, so they live in an object that
    recurses through ``self`` and holds no reference to itself: the memos go
    by reference counting with the walk."""

    __slots__ = ("memo", "options", "devs")

    def __init__(self, memo, options):
        self.memo, self.options, self.devs = memo, options, {0: []}

    def of(self, free):
        out = self.devs.get(free)
        if out is None:
            low = free & -free
            rest, live = free ^ low, []
            for bit, key in self.options[low.bit_length() - 1]:
                if rest & bit:
                    c, t = self.memo[rest ^ bit]
                    if c:
                        live.append((key | t, key, rest ^ bit))
            live.sort(reverse=True)
            _, key, sub = live[0]
            # or-ing one key into a list greatest first keeps it so
            out = [(v | key, p | key, s) for v, p, s in self.of(sub)]
            if len(live) > 1:
                out += live[1:]
                out.sort(reverse=True)
            self.devs[free] = out
        return out


def _greatest_first(top, root, deviations):
    """The completion keys of ``root``, greatest first, from their greatest
    key ``top`` (-1: none) and ``deviations`` (see ``_matching_sweep``): a
    best-first walk in the manner of Eppstein's k shortest paths (SIAM J.
    Comput. 28, 1998).  A heap entry (-key, base, list, j) holds the greatest
    key of the completions of deviation j of a list, below the edges
    ``base``; popping it yields that key and pushes deviation j + 1 of the
    list and the first of the entry's own deviations, which hold every key
    of the entry's completions but the one yielded.
    """
    heap = [(-top, 0, [(top, 0, root)], 0)] if top >= 0 else []
    while heap:
        neg, base, dev, j = heappop(heap)
        yield -neg
        if j + 1 < len(dev):
            heappush(heap, (-(base | dev[j + 1][0]), base, dev, j + 1))
        _, pre, sub = dev[j]
        own = deviations(sub)
        if own:
            heappush(heap, (-(base | pre | own[0][0]), base | pre, own, 0))


class _Matchings(Sequence):
    """The perfect matchings of one graph, as frozensets of edge ids in the
    order of their sorted edge tuples, and the least 2-factor they leave:
    the store that ``enumerate_perfect_matchings`` returns.

    ``len`` is the sweep's count.  ``made`` holds the keys made so far: key
    i is made by the walk, with the keys before it, on its first read, so
    every reader sees one sequence; a matching is decoded on each read.
    ``least()`` is the first 2-factor in that order with the least (odd
    circuits, circuits) key, walked once and memoised; it makes the keys
    only up to where it stops.  ``masks[i]`` is matching i as an edge mask,
    the low half of its key, and makes every key.  ``holders[e]``, built on
    first use, is the set of matchings that hold edge e, as a bitmask over
    their indices.  A store with no matching is falsy.
    """

    __slots__ = ("g", "made", "_size", "_walk", "_masks", "_least", "_holders")

    def __init__(self, g, size, walk):
        self.g, self.made, self._size, self._walk = g, [], size, walk
        self._masks = self._least = self._holders = None

    def __len__(self):
        return self._size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(self._size)[i]]
        return _decoded(self._key(range(self._size)[i]), self.g.m)

    def __eq__(self, other):
        return list(self) == (list(other) if isinstance(other, _Matchings) else other)

    def _key(self, i):
        made = self.made
        if i >= len(made):
            made += islice(self._walk, i + 1 - len(made))
        return made[i]

    @property
    def masks(self):
        if self._masks is None:
            self.made += self._walk
            full = (1 << self.g.m) - 1
            self._masks = [key & full for key in self.made]
        return self._masks

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

    def least(self):
        """(i, (odd circuits, circuits), walks) of the first 2-factor, in
        matching order, with the least key, where i indexes its matching and
        ``walks`` are its circuits' ``_walks``; None with no matching.  The
        walk stops at the first Hamiltonian 2-factor, since (0, 1) is the
        least key there is."""
        if self._least is None:
            best, full = None, (1 << self.g.m) - 1
            for i in range(self._size):
                key, walks = self._count(self._key(i) & full)
                if best is None or key < best[1]:
                    best = i, key, walks
                    if key == (0, 1):
                        break
            self._least = best
        return self._least

    def _count(self, pm):
        walks = _walks(self.g, ((1 << self.g.m) - 1) & ~pm)
        return (sum(len(edges) & 1 for edges, _ in walks), len(walks)), walks


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
    budget = _Budget(node_limit)
    if cubic and node_limit is not None:  # the colouring spends the budget, reading no memo
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
        found = next(_join_search(_Joins(g, range(g.n)), _bfs_edges(g), 0, _Budget(node_limit),
                                  pins), None)
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
# edge labellings: 3-edge-colourings, Petersen colourings, k-class CDCs and
# covers by k perfect matchings
# --------------------------------------------------------------------------

def _label_search(g: Multigraph, stars, budget, symbols=None, cuts=None):
    """First labelling of the edges of ``g`` (loopless) in which the labels
    at every vertex of degree 3 form one of ``stars``, and the labels at any
    vertex are pairwise in a common star, or None when none exists
    (complete proof).

    ``stars`` are sets of three labels, and two labels lie in at most one
    star, so any two labels at a vertex fix the third.  Each edge keeps a
    bitmask domain.  Labelling an edge narrows the other edges at its ends to
    the labels that share a star with it, and fixes the third edge of a
    vertex whose other two edges are labelled; a domain that falls to one
    label is labelled at once.  Both rules are one table lookup per
    neighbour: ``third[a][b]`` is the mask left beside labels a and b (every
    label sharing a star with a when b is -1, unlabelled), and ``beside[e]``
    pairs each edge at an end of e with the third edge there.  The search
    branches on the smallest domain, then the lowest edge id (so a domain of
    two labels ends the scan), and tries its labels in ascending order, one
    node of ``budget`` each.  ``symbols[a]`` masks the interchangeable
    symbols that label ``a`` uses; a branch may use no new symbol above the
    highest used one plus one, which stays sound when propagation uses
    symbols out of order.
    ``cuts(dom)``, when given, runs after each branch's propagation on the
    domains: None refutes the branch, else its (edge, mask) pairs narrow the
    edge's domain to the mask, and that narrowing propagates in turn.
    """
    count = 1 + max((max(star) for star in stars), default=-1)
    # third[a][b]: the labels left to an edge beside a and b at a vertex of
    # degree 3, as a mask: the third label of their star; third[a][-1] (b
    # unlabelled, or no b) is every label sharing a star with a
    third = [[0] * (count + 1) for _ in range(count)]
    for star in stars:
        for a in star:
            for b in star:
                if a != b:
                    third[a][-1] |= 1 << b
                    (c,) = set(star) - {a, b}
                    third[a][b] = 1 << c
    symbols = symbols or [0] * count
    m = g.m
    # beside[e]: (f, o) for each other edge f at each end of e, where o is
    # the third edge there, or m when the end has no third edge
    at = []  # at[v][e]: those pairs at v
    for inc in g.incident_edges:
        if len(inc) == 3:
            x, y, z = inc
            at.append({x: ((y, z), (z, y)), y: ((x, z), (z, x)), z: ((x, y), (y, x))})
        else:
            at.append({e: tuple((f, m) for f in inc if f != e) for e in inc})
    beside = [at[u][e] + at[v][e] for e, (u, v) in enumerate(g.edges)]
    full = _mask(a for star in stars for a in star)
    dom = [full] * m
    lab = [-1] * (m + 1)  # lab[m] stays -1
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
            left = third[a]
            for f, o in beside[e]:
                if lab[f] < 0:
                    d = dom[f]
                    x = d & left[lab[o]]
                    if x != d:  # narrow(f, x, queue), inline
                        if not x:
                            return False
                        trail.append((f, d, -1))
                        dom[f] = x
                        if not x & (x - 1):
                            queue.append((f, x.bit_length() - 1))
        return True

    def settle():
        # narrow by the caller's cuts, once
        if cuts is None:
            return True
        cut, queue = cuts(dom), []
        return cut is not None and all(narrow(f, dom[f] & d, queue) for f, d in cut) and label(queue)

    def rec():
        nonlocal used
        best, size = -1, count + 1
        for e in range(m):
            if lab[e] < 0:
                c = dom[e].bit_count()
                if c < size:
                    best, size = e, c
                    if c == 2:
                        break  # no smaller domain: one label alone is labelled already
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
            budget.spend("labelling")
            if label([(best, a)]) and settle() and rec():
                return True
            while len(trail) > mark:
                e, dom[e], lab[e] = trail.pop()
            used = before
        return False

    try:
        return lab[:m] if rec() else None
    finally:
        rec = None  # rec's cell holds rec and what it calls: unbound, even on an abort


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

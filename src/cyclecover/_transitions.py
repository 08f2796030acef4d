"""The transition search: covers with weights <= 2 by their weight-2 edges' joins.

``_Joins`` holds the transition choices of a cubic graph or of a truncation
of it, ``_join_search`` runs a perfect matching search with one choice per
matching edge, ``_every_cover`` runs it over each vertex set of weight 6 at
one excess, and ``_decode_joins`` turns a run of choices into its cover.
``_structured_covers``, ``find_cdc`` and the Petersen pullbacks read it.  A
leaf: it imports from ``errors``, ``graphs`` and ``covers``, and spends the
caller's ``solvers._Budget``.
"""

from __future__ import annotations

from itertools import combinations

from .covers import CycleCover, circuit_from_walk
from .errors import NodeLimitExceeded
from .graphs import _mask


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

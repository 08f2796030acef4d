"""The matching sweep: every perfect matching of a graph, greatest key first.

``_matching_sweep`` counts a graph's perfect matchings by a path
decomposition and walks their keys best first (``_greatest_first``), and
``_Matchings`` is the store over that walk that ``solvers`` hands out as
``enumerate_perfect_matchings`` and reads for tau, oddness and the labelling
cuts.  A leaf: it imports from ``graphs`` only, and never ``solvers``, whose
``_matchings`` builds the store through the public call.
"""

from __future__ import annotations

from collections.abc import Sequence
from heapq import heappop, heappush
from itertools import compress, islice

from .graphs import _one_graph_memo, _walks


_BITS = bytes.maketrans(b"01", b"\0\1")  # a bit string's digits as 0/1 bytes


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

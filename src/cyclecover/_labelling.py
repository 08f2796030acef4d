"""The labelling search: edge labellings whose labels at each vertex form a star.

``_label_search`` finds 3-edge-colourings, Petersen colourings, k-class
CDCs and covers by k perfect matchings (labels and stars from
``_partition_tables``), by one propagation rule and one branching order.
A leaf: it imports from ``graphs`` only, and spends the caller's
``solvers._Budget``.
"""

from __future__ import annotations

from itertools import combinations

from .graphs import Multigraph, _mask


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

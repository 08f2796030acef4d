"""Seeded input generators for the benchmark.

They depend on nothing in the program, so a change to the program cannot
change the inputs: the same seed always gives the same graph6 text and the
same permutations.  ``relabelled`` and ``rotated_permutation`` give a
labelled copy of a graph: isomorphic, so the answers and the intrinsic work
stay the same, while the program meets other vertex and edge orders.
"""

from __future__ import annotations

import random


def random_cubic_edges(n: int, rng: random.Random):
    """Edge list of a uniform random connected bridgeless simple cubic graph.

    Pairing model with rejection: pair up the 3n points, reject loops,
    parallel edges, disconnected and bridged graphs, and try again.
    """
    if n % 2 or n < 4:
        raise ValueError("a cubic graph needs an even order of at least 4")
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = set()
        ok = True
        for i in range(0, 3 * n, 2):
            u, v = points[i], points[i + 1]
            key = (min(u, v), max(u, v))
            if u == v or key in edges:
                ok = False
                break
            edges.add(key)
        if ok and _connected_bridgeless(n, edges):
            return sorted(edges)


def _connected_bridgeless(n: int, edges) -> bool:
    """Connected and bridgeless, by one depth-first search with low points."""
    adj = [[] for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        adj[u].append((v, i))
        adj[v].append((u, i))
    order = [-1] * n
    low = [0] * n
    order[0] = low[0] = 0
    counter = 1
    stack = [(0, -1, iter(adj[0]))]
    while stack:
        v, parent_edge, it = stack[-1]
        for w, e in it:
            if e == parent_edge:
                continue
            if order[w] < 0:
                order[w] = low[w] = counter
                counter += 1
                stack.append((w, e, iter(adj[w])))
                break
            low[v] = min(low[v], order[w])
        else:
            stack.pop()
            if stack:
                p = stack[-1][0]
                if low[v] > order[p]:
                    return False  # the tree edge p-v is a bridge
                low[p] = min(low[p], low[v])
    return counter == n


def graph6(n: int, edges) -> str:
    """graph6 text of a simple graph on fewer than 63 vertices."""
    if not 0 < n < 63:
        raise ValueError("only 1..62 vertices are encoded here")
    present = set((min(u, v), max(u, v)) for u, v in edges)
    bits = [1 if (i, j) in present else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    chunks = (bits[k:k + 6] for k in range(0, len(bits), 6))
    body = "".join(chr(63 + int("".join(map(str, c)), 2)) for c in chunks)
    return chr(63 + n) + body


def has_triangle(n: int, edges) -> bool:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return any(adj[u] & adj[v] for u, v in edges)


def random_odd_permutation(k: int, rng: random.Random):
    """Uniform random permutation of 0..k-1 with an odd number of inversions."""
    while True:
        perm = list(range(k))
        rng.shuffle(perm)
        inversions = sum(1 for i in range(k) for j in range(i + 1, k) if perm[i] > perm[j])
        if inversions % 2:
            return tuple(perm)


def relabelled(n: int, edges, rng: random.Random):
    """The edges under a uniform random relabelling of the vertices, sorted."""
    label = list(range(n))
    rng.shuffle(label)
    return sorted((min(label[u], label[v]), max(label[u], label[v])) for u, v in edges)


def rotated_permutation(perm, rng: random.Random):
    """An odd permutation whose permutation graph is isomorphic to that of ``perm``.

    Rotating the outer k-circuit by r and the inner one by s maps the
    matching i -> perm[i] to i -> perm[i + r] - s (mod k); a rotation of an
    odd number of points is an even permutation, so the parity is kept.
    """
    k = len(perm)
    r, s = rng.randrange(k), rng.randrange(k)
    return tuple((perm[(i + r) % k] - s) % k for i in range(k))

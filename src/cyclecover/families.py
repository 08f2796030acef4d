"""Generators for the named graph families and bit-exact graph I/O.

Fixed numbering of the reference Petersen graph (used throughout, in
particular by the Petersen-colouring module): vertices 0-4 are the outer
5-circuit in order, vertex ``i+5`` hangs below ``i``, and the inner pentagram
is ``5-7-9-6-8-5``.  Edge ids: 0-4 outer circuit, 5-9 spokes, 10-14 pentagram.
"""

from __future__ import annotations

from .errors import GraphError
from .graphs import CubicGraph, Multigraph


def petersen() -> CubicGraph:
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5, 7), (7, 9), (9, 6), (6, 8), (8, 5)]
    return CubicGraph(10, edges)


def flower(k: int) -> CubicGraph:
    """Flower snark J_k: k stars, a k-circuit of star tips, one 2k-circuit.

    Vertices: hub ``i``, tip ``k+i`` (the B-circuit), and ``2k+i`` / ``3k+i``
    on the long circuit ``C_0..C_{k-1} D_0..D_{k-1}``.
    """
    if k < 5 or k % 2 == 0:
        raise GraphError(f"flower parameter must be odd and >= 5, got {k}")
    edges = []
    for i in range(k):
        edges += [(i, k + i), (i, 2 * k + i), (i, 3 * k + i)]
    edges += [(k + i, k + (i + 1) % k) for i in range(k)]
    long_cycle = [2 * k + i for i in range(k)] + [3 * k + i for i in range(k)]
    edges += [(long_cycle[t], long_cycle[(t + 1) % (2 * k)]) for t in range(2 * k)]
    return CubicGraph(4 * k, edges)


# The Goldberg snark G_k (M. K. Goldberg, "Construction of class 2 graphs with
# maximum vertex degree 3", J. Combin. Theory Ser. B 31, 1981): k copies of an
# eight-vertex block in a ring.  A block is the reference Petersen graph minus
# the path x-y-z = 0-1-2, which keeps vertices 3..9 (local ids 0..6, Petersen
# vertex p -> p - 3), plus a central vertex c (local id 7).  The wiring is a
# quotient on the block with a step for each edge: step 0 edges stay inside a
# block, step +1 edges join block i to block i+1.
#   - block edges: the Petersen edges among 3..9, and y's third neighbour 6 to c;
#   - central circuit: the c vertices form a k-circuit;
#   - links: the z-side dangling edges of block i (at 3 and 7) go to the x-side
#     ones of block i+1 (at 4 and 5), outer circuit to outer, pentagram to
#     pentagram, so the outer and inner Petersen remnants close into two
#     2k-circuits.
# For odd k >= 5 this gives girth 5, cyclic connectivity 4, no 3-edge-colouring
# and perfect matching index 4 (pinned by the tests; the crossed pairing of
# the links, 3 -> 5 and 7 -> 4, gives a non-isomorphic graph with the same
# invariants).  At k = 3 the central circuit is a triangle: the ring is still
# not 3-edge-colourable, but it has girth 3 and is not cyclically
# 4-edge-connected, which is why the parameter starts at 5.
_GOLDBERG_QUOTIENT = (
    (0, 1, 0), (0, 5, 0), (1, 6, 0),                        # 3-4, 3-8, 4-9
    (2, 4, 0), (4, 6, 0), (6, 3, 0), (3, 5, 0), (5, 2, 0),  # pentagram 5-7-9-6-8-5
    (3, 7, 0),                                              # 6-c
    (7, 7, 1),                                              # central circuit
    (0, 1, 1), (4, 2, 1),                                   # links 3->4', 7->5'
)


def goldberg(k: int) -> CubicGraph:
    """Goldberg snark G_k on 8k vertices (wiring in ``_GOLDBERG_QUOTIENT``).

    Vertices: ``8*i + j`` for block ``i`` and local id ``j``; ``j`` in 0..6 is
    reference Petersen vertex ``j + 3`` and ``j = 7`` is the central vertex.
    Edge ``t*k + i`` is quotient entry ``t`` placed at block ``i``.
    """
    if k < 5 or k % 2 == 0:
        raise GraphError(f"goldberg parameter must be odd and >= 5, got {k}")
    edges = []
    for u, v, step in _GOLDBERG_QUOTIENT:
        for i in range(k):
            edges.append((u + 8 * i, v + 8 * ((i + step) % k)))
    return CubicGraph(8 * k, edges)


def permutation_snark(perm) -> CubicGraph:
    """Two k-circuits joined by the perfect matching ``i -> k + perm[i]``.

    The identity permutation yields the circular ladder; the pentagram
    permutation (0,2,4,1,3) on 5 points yields the Petersen graph.
    """
    perm = tuple(perm)
    k = len(perm)
    if k % 2 == 0 or k < 3:
        raise GraphError(f"permutation length must be odd and >= 3, got {k}")
    if sorted(perm) != list(range(k)):
        raise GraphError("not a permutation of 0..k-1")
    edges = [(i, (i + 1) % k) for i in range(k)]
    edges += [(k + i, k + (i + 1) % k) for i in range(k)]
    edges += [(i, k + perm[i]) for i in range(k)]
    return CubicGraph(2 * k, edges)


# --------------------------------------------------------------------------
# graph6 (simple graphs only, bytes 63..126, upper triangle column by column)
# --------------------------------------------------------------------------

def _g6_read_n(data: bytes):
    if not data:
        raise GraphError("empty graph6 line")
    if data[0] != 126:
        return data[0] - 63, 1
    if len(data) >= 4 and data[1] != 126:
        n = 0
        for b in data[1:4]:
            if not 63 <= b <= 126:
                raise GraphError("bad byte in graph6 size field")
            n = (n << 6) | (b - 63)
        return n, 4
    raise GraphError("graph6 sizes beyond 258047 vertices are not supported")


def parse_graph6(line: str) -> CubicGraph:
    """Decode one graph6 line into a validated cubic graph."""
    line = line.strip()
    if line.startswith(">>graph6<<"):
        line = line[len(">>graph6<<"):]
    data = line.encode("ascii", errors="replace")
    n, pos = _g6_read_n(data)
    body = data[pos:]
    need_bits = n * (n - 1) // 2
    need_bytes = (need_bits + 5) // 6
    if len(body) != need_bytes:
        raise GraphError(f"expected {need_bytes} data bytes for n={n}, got {len(body)}")
    bits = []
    for b in body:
        if not 63 <= b <= 126:
            raise GraphError(f"byte {b} outside graph6 range")
        x = b - 63
        bits.extend((x >> s) & 1 for s in (5, 4, 3, 2, 1, 0))
    if any(bits[need_bits:]):
        raise GraphError("nonzero padding bits")
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    try:
        return CubicGraph(n, edges)
    except GraphError as exc:
        raise GraphError(f"graph6 line decodes to a non-cubic graph: {exc}") from exc


def write_graph6(g: Multigraph) -> str:
    """Encode a simple graph as one graph6 line (bit-exact standard encoding)."""
    if g.loops:
        raise GraphError("graph6 cannot encode loops")
    if g.has_parallel_edges:
        raise GraphError("graph6 cannot encode parallel edges")
    n = g.n
    if n <= 62:
        head = bytes([n + 63])
    elif n <= 258047:
        head = bytes([126, 63 + (n >> 12), 63 + ((n >> 6) & 63), 63 + (n & 63)])
    else:
        raise GraphError("graph too large for the supported graph6 sizes")
    adj = [[False] * n for _ in range(n)]
    for u, v in g.edges:
        adj[u][v] = adj[v][u] = True
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(adj[i][j])
    while len(bits) % 6:
        bits.append(False)
    body = bytearray()
    for t in range(0, len(bits), 6):
        x = 0
        for b in bits[t:t + 6]:
            x = (x << 1) | int(b)
        body.append(x + 63)
    return (head + bytes(body)).decode("ascii")


# --------------------------------------------------------------------------
# adjacency text format: one line per edge "u v", '#' comments
# --------------------------------------------------------------------------

def parse_adjacency(text: str):
    """Parse edge-per-line text; returns a CubicGraph when all degrees are 3.

    Parallel edges are given as repeated lines; degrees above 3 are rejected
    since every consumer of this format works with (sub)cubic graphs.
    """
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphError(f"line {lineno}: non-integer vertex in {raw!r}") from exc
        if u < 0 or v < 0:
            raise GraphError(f"line {lineno}: negative vertex in {raw!r}")
        if u == v:
            raise GraphError(f"line {lineno}: loop at vertex {u}")
        edges.append((u, v))
    if not edges:
        raise GraphError("no edges")
    n = max(max(u, v) for u, v in edges) + 1
    g = Multigraph(n, edges)
    if any(d > 3 for d in g.degrees()):
        v = next(v for v in range(n) if g.degree(v) > 3)
        raise GraphError(f"vertex {v} has degree {g.degree(v)} > 3")
    if all(d == 3 for d in g.degrees()):
        return CubicGraph(n, edges)
    return g


def write_adjacency(g: Multigraph) -> str:
    pairs = sorted(tuple(sorted(e)) for e in g.edges)
    return "\n".join(f"{u} {v}" for u, v in pairs) + "\n"

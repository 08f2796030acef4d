"""Circuits, cycle covers, CDCs: construction, lifting, and validation.

A ``Circuit`` stores a closed walk in canonical form (lexicographically least
rotation/reflection of its edge-id sequence), so equal circuits compare equal
and covers have a stable textual form.  ``CycleCover`` is a multiset of
circuits; ``KCdc`` groups a double cover into k even-subgraph colour classes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GraphError
from .graphs import Multigraph


@dataclass(frozen=True)
class Circuit:
    """A simple circuit: ``edges[i]`` joins ``vertices[i]`` to ``vertices[i+1]``."""

    edges: tuple
    vertices: tuple

    def __len__(self):
        return len(self.edges)

    @property
    def edge_set(self):
        return frozenset(self.edges)

    def sort_key(self):
        return (len(self.edges), self.edges, self.vertices)


def _canonicalize_walk(edges, vertices):
    """Least (edges, vertices) pair over all rotations and both directions.

    Only walks that start with the least edge id compete: the forward and
    the backward walk from each place it holds, and in a circuit it holds
    one.  Edge ``edges[p]`` runs from ``vertices[p]`` to ``vertices[p + 1]``.
    """
    least = min(edges)
    cands = []
    for p, e in enumerate(edges):
        if e == least:
            q = (p + 1) % len(edges)
            cands.append((tuple(edges[p:] + edges[:p]), tuple(vertices[p:] + vertices[:p])))
            cands.append((tuple(edges[p::-1] + edges[:p:-1]),
                          tuple(vertices[q::-1] + vertices[:q:-1])))
    return min(cands)


def circuit_from_walk(edges, vertices) -> Circuit:
    edges = list(edges)
    vertices = list(vertices)
    if len(edges) != len(vertices) or len(edges) < 2:
        raise ValueError("a circuit needs matching edge/vertex walks of length >= 2")
    e, v = _canonicalize_walk(edges, vertices)
    return Circuit(e, v)


def trace_circuit(g: Multigraph, edge_ids) -> Circuit:
    """Interpret an edge set as the single simple circuit it spans."""
    edge_ids = sorted(set(edge_ids))
    inc = {}
    for e in edge_ids:
        u, v = g.edges[e]
        inc.setdefault(u, []).append(e)
        inc.setdefault(v, []).append(e)
    if len(inc) != len(edge_ids):
        raise ValueError("edge set is not a single circuit (vertex/edge count mismatch)")
    for v, es in inc.items():
        if len(es) != 2:
            raise ValueError(f"vertex {v} has degree {len(es)} in the edge set")
    start = min(inc)
    first = min(inc[start])
    walk_v = [start]
    walk_e = [first]
    cur = g.other_end(first, start)
    prev = first
    while cur != start:
        walk_v.append(cur)
        a, b = inc[cur]
        nxt = b if a == prev else a
        walk_e.append(nxt)
        cur = g.other_end(nxt, cur)
        prev = nxt
    if len(walk_e) != len(edge_ids):
        raise ValueError("edge set is not connected (not a single circuit)")
    return circuit_from_walk(walk_e, walk_v)


def is_even_subgraph(g: Multigraph, edge_ids) -> bool:
    deg = {}
    for e in edge_ids:
        u, v = g.edges[e]
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    return all(d % 2 == 0 for d in deg.values())


def decompose_even_subgraph(g: Multigraph, edge_ids):
    """Split an even subgraph into circuits, deterministically.

    Walks greedily from the least remaining edge id, always leaving a vertex by
    its least unused edge, extracting a circuit at the first vertex repeat.
    For degree-0/2 subgraphs this is the unique decomposition.
    """
    edge_ids = set(edge_ids)
    if not is_even_subgraph(g, edge_ids):
        raise ValueError("edge set is not an even subgraph")
    inc = {}
    for e in edge_ids:
        u, v = g.edges[e]
        inc.setdefault(u, set()).add(e)
        inc.setdefault(v, set()).add(e)
    circuits = []
    remaining = edge_ids
    walk_v, walk_e, pos = [], [], {}
    while remaining or walk_e:
        if not walk_e:
            e0 = min(remaining)
            start = min(g.edges[e0])
            walk_v = [start]
            pos = {start: 0}
            nxt = e0
        else:
            cur = walk_v[-1]
            nxt = min(inc[cur] & remaining)
        cur = walk_v[-1]
        remaining.discard(nxt)
        walk_e.append(nxt)
        w = g.other_end(nxt, cur)
        if w in pos:
            p = pos[w]
            circuits.append(circuit_from_walk(walk_e[p:], walk_v[p:]))
            for v in walk_v[p + 1:]:
                del pos[v]
            del walk_v[p + 1:]
            del walk_e[p:]
        else:
            walk_v.append(w)
            pos[w] = len(walk_v) - 1
    return tuple(sorted(circuits, key=Circuit.sort_key))


@dataclass(frozen=True)
class CycleCover:
    """Multiset of circuits, stored sorted so equal covers compare equal."""

    circuits: tuple

    @staticmethod
    def of(circuits) -> "CycleCover":
        return CycleCover(tuple(sorted(circuits, key=Circuit.sort_key)))

    @property
    def length(self) -> int:
        return sum(len(c) for c in self.circuits)

    def edge_weight(self, m: int):
        w = [0] * m
        for c in self.circuits:
            for e in c.edges:
                w[e] += 1
        return w

    def vertex_weight(self, g: Multigraph):
        w = self.edge_weight(g.m)
        out = [0] * g.n
        for e, (u, v) in enumerate(g.edges):
            out[u] += w[e]
            out[v] += w[e]
        return out

    def weight_one_edges(self, m: int):
        return frozenset(e for e, w in enumerate(self.edge_weight(m)) if w == 1)


@dataclass(frozen=True)
class KCdc:
    """k even subgraphs covering every edge exactly twice."""

    classes: tuple

    @staticmethod
    def of(classes) -> "KCdc":
        return KCdc(tuple(frozenset(c) for c in classes))

    @property
    def k(self) -> int:
        return len(self.classes)

    def edge_weight(self, m: int):
        w = [0] * m
        for cls in self.classes:
            for e in cls:
                w[e] += 1
        return w

    def as_cover(self, g: Multigraph) -> CycleCover:
        circuits = []
        for cls in self.classes:
            circuits.extend(decompose_even_subgraph(g, cls))
        return CycleCover.of(circuits)


# --------------------------------------------------------------------------
# lifting along reduction maps
# --------------------------------------------------------------------------

def lift_edge_set(edge_ids, rmap) -> frozenset:
    """The edges of ``rmap.original`` on the paths of the reduced edges."""
    paths = rmap.edge_path
    out = set()
    for e in edge_ids:
        if not 0 <= e < len(paths):
            raise GraphError(f"edge {e} not in the reduction map")
        out.update(paths[e])
    return frozenset(out)


def lift_cover(cover: CycleCover, rmap) -> CycleCover:
    """Replace each reduced edge by its path in ``rmap.original``.

    A cover of the reduction becomes the corresponding cover of the graph it
    was taken from, in that graph's own edge ids; circuits stay circuits
    because the interior path vertices have degree 2 in the smoothed
    subgraph.
    """
    lifted = [trace_circuit(rmap.original, lift_edge_set(c.edges, rmap)) for c in cover.circuits]
    return CycleCover.of(lifted)


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CoverReport:
    ok: bool
    problems: tuple
    length: int
    weight_histogram: dict
    missing_edges: tuple
    is_cdc: bool
    is_one_two_cover: bool
    weight_one_edges: frozenset


def _check_circuit(g: Multigraph, c: Circuit, problems):
    if len(c) < 2:
        problems.append(f"circuit {c.edges} shorter than 2")
        return
    if len(c.vertices) != len(c):
        problems.append(f"circuit {c.edges} has {len(c.vertices)} vertices")
        return
    if len(set(c.vertices)) != len(c.vertices):
        problems.append(f"circuit {c.edges} repeats a vertex")
    if len(set(c.edges)) != len(c.edges):
        problems.append(f"circuit {c.edges} repeats an edge")
    L = len(c)
    for i in range(L):
        e = c.edges[i]
        if not 0 <= e < g.m:
            problems.append(f"circuit references unknown edge {e}")
            return
        u, v = c.vertices[i], c.vertices[(i + 1) % L]
        if set(g.edges[e]) != {u, v}:
            problems.append(f"edge {e} does not join {u} and {v}")
            return


def validate(obj, g: Multigraph) -> CoverReport:
    """Check all type invariants of a cover or k-CDC; never raises.

    The report carries length, the weight histogram, whether the object is a
    (1,2)-cover, and whether it covers every edge exactly twice.  An id that
    names no edge of ``g`` is a problem and adds no weight.
    """
    problems = []
    w = [0] * g.m  # edge weights over the ids that name an edge of g
    if isinstance(obj, KCdc):
        for i, cls in enumerate(obj.classes):
            known = []
            for e in cls:
                if 0 <= e < g.m:
                    known.append(e)
                    w[e] += 1
                else:
                    problems.append(f"class {i} references unknown edge {e}")
            if not is_even_subgraph(g, known):
                problems.append(f"class {i} is not an even subgraph")
        length = sum(w)
        for e in range(g.m):
            if w[e] != 2:
                problems.append(f"edge {e} lies in {w[e]} classes, expected 2")
                break
    elif isinstance(obj, CycleCover):
        for c in obj.circuits:
            _check_circuit(g, c, problems)
            for e in c.edges:
                if 0 <= e < g.m:
                    w[e] += 1
        missing = tuple(e for e in range(g.m) if w[e] == 0)
        if missing:
            problems.append(f"edges not covered: {missing}")
        length = obj.length
        # each edge adds its weight to two vertex weights
        if length != sum(w):
            problems.append("length identity violated: length != (1/2) sum of vertex weights")
    else:
        raise TypeError(f"cannot validate {type(obj).__name__}")
    hist = {}
    for x in w:
        hist[x] = hist.get(x, 0) + 1
    return CoverReport(
        ok=not problems,
        problems=tuple(problems),
        length=length,
        weight_histogram=hist,
        missing_edges=tuple(e for e in range(g.m) if w[e] == 0),
        is_cdc=all(x == 2 for x in w),
        is_one_two_cover=all(1 <= x <= 2 for x in w),
        weight_one_edges=frozenset(e for e in range(g.m) if w[e] == 1),
    )

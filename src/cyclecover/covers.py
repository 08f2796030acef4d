"""Circuits, cycle covers, CDCs: construction, lifting, and validation.

A ``Circuit`` stores a closed walk in canonical form (lexicographically least
rotation/reflection of its edge-id sequence), so equal circuits compare equal
and covers have a stable textual form.  ``CycleCover`` is a multiset of
circuits; ``KCdc`` groups a double cover into k even-subgraph colour classes.
"""

from __future__ import annotations

from .errors import GraphError, _Record
from .graphs import Multigraph, _walks


class Circuit(_Record):
    """A simple circuit: ``edges[i]`` joins ``vertices[i]`` to ``vertices[i+1]``
    (both tuples of ints)."""

    __slots__ = ("edges", "vertices")

    def __init__(self, edges, vertices):
        # written out: circuits are the records built most, and the
        # generic record constructor takes about twice as long
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "vertices", vertices)

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


def _two_regular_walks(g: Multigraph, edge_ids):
    """``graphs._walks`` of an edge set; ``ValueError`` unless every id is an
    edge of g and every vertex has degree 0 or 2 in the set."""
    m, ends = g.m, g.edges
    keep, deg = 0, {}
    for e in set(edge_ids):
        if not 0 <= e < m:
            raise ValueError(f"edge set names {e}, which is not an edge of the graph")
        keep |= 1 << e
        u, v = ends[e]
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    for v, d in deg.items():
        if d != 2:
            raise ValueError(f"vertex {v} has degree {d} in the edge set")
    return _walks(g, keep)


def trace_circuit(g: Multigraph, edge_ids) -> Circuit:
    """Interpret an edge set as the single simple circuit it spans."""
    walks = _two_regular_walks(g, edge_ids)
    if len(walks) != 1:
        raise ValueError(f"edge set is {len(walks)} circuits, not a single circuit")
    return circuit_from_walk(*walks[0])


def is_even_subgraph(g: Multigraph, edge_ids) -> bool:
    deg = {}
    for e in edge_ids:
        u, v = g.edges[e]
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    return all(d % 2 == 0 for d in deg.values())


def decompose_even_subgraph(g: Multigraph, edge_ids):
    """The circuits of an edge set in which every vertex has degree 0 or 2,
    sorted by ``Circuit.sort_key``; ``ValueError`` for any other degree or
    an id that is not an edge of g."""
    return tuple(sorted((circuit_from_walk(*w) for w in _two_regular_walks(g, edge_ids)),
                        key=Circuit.sort_key))


class CycleCover(_Record):
    """Multiset of circuits, stored sorted so equal covers compare equal:
    ``circuits`` is a tuple of ``Circuit``."""

    __slots__ = ("circuits",)

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


class KCdc(_Record):
    """k even subgraphs covering every edge exactly twice, ``classes`` a
    tuple of k frozensets of edge ids.  ``as_cover`` needs vertex degrees 0
    and 2 in each, as on a cubic graph."""

    __slots__ = ("classes",)

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

def lift_cover(cover: CycleCover, rmap) -> CycleCover:
    """Replace each reduced edge by its path in ``rmap.original``.

    A cover of the reduction becomes the corresponding cover of the graph it
    was taken from, in that graph's own edge ids; circuits stay circuits
    because the interior path vertices have degree 2 in the smoothed
    subgraph.
    """
    paths, lifted = rmap.edge_path, []
    for c in cover.circuits:
        for e in c.edges:
            if not 0 <= e < len(paths):
                raise GraphError(f"edge {e} not in the reduction map")
        lifted.append(trace_circuit(rmap.original, [f for e in c.edges for f in paths[e]]))
    return CycleCover.of(lifted)


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------

class CoverReport(_Record):
    """What ``validate`` found: ``ok`` (bool), ``problems`` (tuple of str),
    ``length`` (int), ``weight_histogram`` (dict, weight -> number of edges),
    ``missing_edges`` (tuple of edge ids), ``is_cdc`` and
    ``is_one_two_cover`` (bool) and ``weight_one_edges`` (frozenset)."""

    __slots__ = ("ok", "problems", "length", "weight_histogram", "missing_edges", "is_cdc",
                 "is_one_two_cover", "weight_one_edges")


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


def circuit_of(g: Multigraph, c: Circuit) -> Circuit:
    """``c`` in canonical form; ``GraphError`` unless its walk is a circuit
    of g (any rotation or direction)."""
    problems = []
    _check_circuit(g, c, problems)
    if problems:
        raise GraphError(f"{c} is not a circuit of the graph: {problems[0]}")
    return circuit_from_walk(c.edges, c.vertices)


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
    # positional fields, in the order of CoverReport's docstring: a keyword
    # call takes the generic record binding, which costs about twice as much
    return CoverReport(not problems, tuple(problems), length, hist,
                       tuple(e for e in range(g.m) if w[e] == 0),
                       all(x == 2 for x in w), all(1 <= x <= 2 for x in w),
                       frozenset(e for e in range(g.m) if w[e] == 1))

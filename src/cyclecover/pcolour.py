"""Petersen colourings: verification, search, balance, and pullback covers.

A Petersen colouring maps every edge of g to an edge of the fixed reference
Petersen graph P (see ``families.petersen`` for the numbering) so that the
three edges at any vertex of g land on the three edges at some vertex of P.
Pulling back a cycle cover of P along such a map gives a cycle cover of g
whose length is the fiber-weighted length of the P-cover.

The same holds for perfect matchings (Jaeger's pullback lemma): each vertex
star of g maps onto a star of P, and each of P's six perfect matchings holds
exactly one edge of every star, so the edges of g that a colouring sends
into one perfect matching of P form a perfect matching of g.  The colouring
search uses this as its cut.
"""

from __future__ import annotations

from functools import cache

from ._labelling import _label_search
from ._transitions import _decode_joins
from .covers import CycleCover, validate
from .constructions import ConstructionResult, _check_result
from .errors import GraphError, HypothesisViolated, _Record
from .families import petersen
from .graphs import CubicGraph
from .solvers import _Budget, _colouring_cover, _matching_cuts, _matchings, _structured_covers

REFERENCE = petersen()

# the three edges at each vertex of P; a valid colouring sends every vertex
# star of g onto one of these
_P_STARS = tuple(frozenset(REFERENCE.incident_edges[v]) for v in range(REFERENCE.n))
_P_STAR_SET = frozenset(_P_STARS)
# the six perfect matchings of P, as masks over its edges; a valid colouring
# pulls each back to a perfect matching of g
_P_MATCHINGS = tuple(_matchings(REFERENCE).masks)


class PetersenColouring(_Record):
    """Edge map ``assignment[e of g] = edge of P``, a tuple; every entry must
    be an edge id of P, so no reader meets an unassigned or unknown edge
    (``verify_petersen_colouring`` also checks that there is one entry per
    edge of g)."""

    __slots__ = ("assignment",)

    def __post_init__(self):
        if any(a is None for a in self.assignment):
            raise GraphError("assignment must cover every edge")
        for a in self.assignment:
            if not 0 <= a < REFERENCE.m:
                raise GraphError(f"assignment names {a}, which is not an edge of P")

    def fiber_sizes(self):
        out = [0] * REFERENCE.m
        for p in self.assignment:
            out[p] += 1
        return tuple(out)


def verify_petersen_colouring(g: CubicGraph, colouring: PetersenColouring):
    """(True, None) if valid, else (False, first violating vertex)."""
    assignment = colouring.assignment
    if len(assignment) != g.m:
        raise GraphError("assignment must cover every edge")
    for v in range(g.n):
        images = frozenset(assignment[e] for e in g.incident_edges[v])
        if images not in _P_STAR_SET:
            return False, v
    return True, None


def find_petersen_colouring(g: CubicGraph, node_limit=None):
    """A Petersen colouring by the labelling search of ``_labelling`` (the labels
    are the edges of P, the stars its vertex stars); None if none exists.

    The preimage of each perfect matching of P is a perfect matching of g
    (see the module docstring), so the search keeps each of the six
    preimages one of the perfect matchings in g's matching store
    (``solvers._matching_cuts``).  A branch that no stored matching can
    complete fails at once, whatever the edge order.  The store is filled
    before the search and ``node_limit`` bounds only the labelling nodes.
    """
    assignment = _label_search(g, _P_STARS, _Budget.of(node_limit),
                               cuts=_matching_cuts(g, _P_MATCHINGS))
    return None if assignment is None else PetersenColouring(tuple(assignment))


def is_balanced(colouring: PetersenColouring, m: int) -> bool:
    """True iff all 15 fibers have size m/15."""
    fibers = colouring.fiber_sizes()
    return m % 15 == 0 and all(f == m // 15 for f in fibers)


def pullback_cover(g: CubicGraph, colouring: PetersenColouring,
                   cover_of_p: CycleCover) -> CycleCover:
    """The preimage of each circuit of a P-cover, as circuits of g: the
    pullback ``solvers._colouring_cover``, since by the star condition a
    circuit of P takes 0 or 2 edges of each vertex star of g."""
    ok, bad = verify_petersen_colouring(g, colouring)
    if not ok:
        raise HypothesisViolated(f"colouring violates the star condition at vertex {bad}")
    report = validate(cover_of_p, REFERENCE)
    if not report.ok:
        raise ValueError(f"not a valid cover of the reference graph: {report.problems}")
    cover = _colouring_cover(g, colouring.assignment, [c.edge_set for c in cover_of_p.circuits])
    fibers = colouring.fiber_sizes()
    w = cover_of_p.edge_weight(REFERENCE.m)
    assert cover.length == sum(w[e] * fibers[e] for e in range(REFERENCE.m))
    return cover


@cache
def _optimal_p_covers():
    """All shortest covers of the reference Petersen graph (length 21), cached."""
    _, covers = _structured_covers(REFERENCE, _Budget())
    return tuple(sorted((_decode_joins(REFERENCE, run) for _, run in covers),
                        key=lambda c: tuple(x.edges for x in c.circuits)))


def best_pullback_cover(g: CubicGraph, colouring: PetersenColouring) -> ConstructionResult:
    """Minimal pullback over all shortest covers of P.

    Bound: 7m/5 for balanced colourings; strictly below 7m/5, i.e. at most
    ceil(7m/5) - 1, otherwise (a 9-circuit of P carries more than the average
    fiber mass, and every 9-circuit is the weight-1 set of a shortest cover).
    """
    fibers = colouring.fiber_sizes()
    best = None
    for cover_p in _optimal_p_covers():
        w = cover_p.edge_weight(REFERENCE.m)
        length = sum(w[e] * fibers[e] for e in range(REFERENCE.m))
        if best is None or length < best[0]:
            best = (length, cover_p)
    length, cover_p = best
    cover = pullback_cover(g, colouring, cover_p)
    assert cover.length == length
    m = g.m
    balanced = is_balanced(colouring, m)
    bound = 7 * m // 5 if balanced else -(-7 * m // 5) - 1
    return _check_result(g, cover, bound, "petersen-colouring",
                         {"balanced": balanced, "p_cover": cover_p, "fiber_sizes": fibers})


# --------------------------------------------------------------------------
# colouring file format: one line per edge, "u v -> p q"
# --------------------------------------------------------------------------

def format_colouring(g: CubicGraph, colouring: PetersenColouring) -> str:
    lines = []
    for e in range(g.m):
        u, v = sorted(g.edges[e])
        p, q = sorted(REFERENCE.edges[colouring.assignment[e]])
        lines.append(f"{u} {v} -> {p} {q}")
    return "\n".join(lines) + "\n"


def parse_colouring(g: CubicGraph, text: str) -> PetersenColouring:
    if g.has_parallel_edges:
        raise GraphError("the colouring file format needs a simple graph")
    edge_id = {tuple(sorted(uv)): e for e, uv in enumerate(g.edges)}
    p_id = {tuple(sorted(uv)): e for e, uv in enumerate(REFERENCE.edges)}
    assignment = [None] * g.m
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.replace("->", " ").split()
        if len(parts) != 4:
            raise GraphError(f"line {lineno}: expected 'u v -> p q'")
        try:
            u, v, p, q = (int(x) for x in parts)
        except ValueError as exc:
            raise GraphError(f"line {lineno}: non-integer field") from exc
        e = edge_id.get((min(u, v), max(u, v)))
        pe = p_id.get((min(p, q), max(p, q)))
        if e is None:
            raise GraphError(f"line {lineno}: {u} {v} is not an edge of the graph")
        if pe is None:
            raise GraphError(f"line {lineno}: {p} {q} is not an edge of the reference graph")
        assignment[e] = pe
    if any(a is None for a in assignment):
        raise GraphError("file does not colour every edge")
    return PetersenColouring(tuple(assignment))

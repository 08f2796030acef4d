"""Constructive pipelines: structural certificates in, short covers out.

Each construction returns a ``ConstructionResult`` whose cover is validated
against the input graph and whose length is checked against the claimed
bound, so a successful return is a machine-checked certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .covers import (
    Circuit,
    CycleCover,
    KCdc,
    decompose_even_subgraph,
    lift_cover,
    lift_edge_set,
    trace_circuit,
    validate,
)
from .errors import GraphError, HypothesisViolated, StrongCdcNotFound, TauTooLarge
from .graphs import (
    CubicGraph,
    contract_two_factor,
    cyclic_connectivity_at_least,
    is_bridgeless,
    is_connected,
    is_spanning_regular,
    suppress_degree_two,
)
from .solvers import (
    circumference,
    find_cdc,
    oddness,
    perfect_matching_index,
    three_disjoint_paths,
)


@dataclass(frozen=True)
class ConstructionResult:
    """A cover with the bound its construction guarantees and the inputs used."""

    cover: CycleCover
    claimed_bound: int
    theorem: str
    certificate: dict

    @property
    def length(self) -> int:
        return self.cover.length


def _as_circuits(g, c):
    if isinstance(c, Circuit):
        return (c,)
    if isinstance(c, (set, frozenset)):
        return decompose_even_subgraph(g, c)
    return tuple(c)


def _cdc_through(g, circuits, node_limit, where) -> CycleCover:
    """A CDC of g that holds ``circuits``.  ``StrongCdcNotFound`` is a proven
    negative; a search that runs out of nodes raises ``NodeLimitExceeded``."""
    cdc = find_cdc(g, must_contain=circuits, node_limit=node_limit)
    if cdc is None:
        raise StrongCdcNotFound(f"no CDC {where}")
    return cdc


def _image(edge_ids, rmap):
    """The reduced edges whose paths lie in the edge set ``edge_ids`` of
    ``rmap.original``."""
    edge_ids = set(edge_ids)
    return [e for e, path in enumerate(rmap.edge_path) if edge_ids.issuperset(path)]


def _check_result(g, cover, bound, theorem, certificate) -> ConstructionResult:
    report = validate(cover, g)
    if not report.ok:
        raise AssertionError(f"{theorem} produced an invalid cover: {report.problems}")
    if cover.length > bound:
        raise AssertionError(f"{theorem} exceeded its bound: {cover.length} > {bound}")
    return ConstructionResult(cover, bound, theorem, certificate)


# --------------------------------------------------------------------------
# covers from CDCs and back
# --------------------------------------------------------------------------

def cover_from_cdc(g: CubicGraph, cdc, c) -> CycleCover:
    """Drop the circuits of the 2-regular subgraph ``c`` from a CDC.

    The remainder is a (1,2)-cover of length exactly 2m - |c|: edges of ``c``
    keep weight 1, all others weight 2.
    """
    if isinstance(cdc, KCdc):
        cdc = cdc.as_cover(g)
    removed = _as_circuits(g, c)
    rest = list(cdc.circuits)
    size = 0
    for circ in removed:
        if circ not in rest:
            raise GraphError(f"circuit {circ.edges} is not in the CDC")
        rest.remove(circ)
        size += len(circ)
    cover = CycleCover.of(rest)
    assert cover.length == 2 * g.m - size
    return cover


def extract_cdc_from_cover(g: CubicGraph, cover: CycleCover):
    """Recover the weight-1 subgraph and the CDC behind a very short cover.

    For covers of length 4m/3 + k with k in {0,1} the weight-1 edges form a
    2-regular subgraph missing exactly k vertices, and adding its circuits to
    the cover yields a CDC.
    """
    base = 2 * g.n  # 4m/3
    k = cover.length - base
    if k not in (0, 1):
        raise GraphError(f"length {cover.length} = 4m/3 + {k}; extraction needs k in {{0,1}}")
    ones = cover.weight_one_edges(g.m)
    circuits = decompose_even_subgraph(g, ones)
    if len(ones) != g.n - k:
        raise AssertionError("weight-1 subgraph has the wrong size")
    cdc = CycleCover.of(list(cover.circuits) + list(circuits))
    report = validate(cdc, g)
    if not report.is_cdc:
        raise AssertionError("weight-1 completion is not a CDC")
    return frozenset(ones), cdc


def hamiltonian_3ec(g: CubicGraph, ham: Circuit, swap: bool = False):
    """Colour a hamiltonian graph: 1/2 alternating on the circuit, 3 on chords.

    ``swap`` exchanges colours 1 and 2 (the other alternation phase).
    """
    if len(ham) != g.n or len(set(ham.vertices)) != g.n:
        raise GraphError("circuit does not span all vertices")
    colour = {}
    a, b = (2, 1) if swap else (1, 2)
    for i, e in enumerate(ham.edges):
        colour[e] = a if i % 2 == 0 else b
    for e in range(g.m):
        if e not in colour:
            colour[e] = 3
    return colour


def _colouring_cover(g, colour, pairs=((1, 2), (1, 3), (2, 3))) -> CycleCover:
    """The circuits of the colour-pair classes of a 3-edge-colouring.

    All three classes give a CDC; (1, 3) and (2, 3) alone give a cover of
    length 4m/3 whose weight-1 edges are the (1, 2) class.
    """
    circuits = []
    for pair in pairs:
        circuits.extend(decompose_even_subgraph(g, (e for e in range(g.m) if colour[e] in pair)))
    return CycleCover.of(circuits)


def merge_cdcs(g: CubicGraph, cdc1: CycleCover, cdc2: CycleCover, shared) -> CycleCover:
    """Union of two CDCs minus both copies of the shared circuits.

    ``cdc1`` and ``cdc2`` are CDCs of edge-disjoint subgraphs whose union is
    g, except that both contain the shared circuits; the result is a CDC of g.
    """
    shared = _as_circuits(g, shared)
    circuits = []
    for cdc in (cdc1, cdc2):
        rest = list(cdc.circuits)
        for circ in shared:
            if circ not in rest:
                raise GraphError(f"circuit {circ.edges} missing from a merged CDC")
            rest.remove(circ)
        circuits.extend(rest)
    merged = CycleCover.of(circuits)
    report = validate(merged, g)
    if not report.is_cdc:
        raise GraphError(f"merge result is not a CDC: {report.problems}")
    return merged


def _split_cover(g, coloured, colouring, searched, shared, node_limit, where) -> CycleCover:
    """The short cover of a graph cut into a coloured and a searched part.

    ``coloured`` and ``searched`` are edge sets of g that meet only in the
    circuits ``shared``.  The reduction of the coloured part is
    3-edge-coloured by ``colouring(reduced, rmap)``, and its colour-pair CDC
    and (1, 3) class are lifted to g.  The reduction of the searched part must
    be 2-connected (``where`` names it); a CDC of it through the images of
    ``shared`` is lifted too.  The two CDCs are merged, and the lifted (1, 3)
    class is dropped from the result.
    """
    reduced, rmap = suppress_degree_two(g, coloured)
    colour = colouring(reduced, rmap)
    cdc1 = lift_cover(_colouring_cover(reduced, colour), rmap)
    c13 = lift_edge_set([e for e, c in colour.items() if c in (1, 3)], rmap)

    reduced, rmap = suppress_degree_two(g, searched)
    if not is_connected(reduced) or not is_bridgeless(reduced):
        raise HypothesisViolated(f"{where} is not 2-connected")
    images = [trace_circuit(reduced, _image(c.edges, rmap)) for c in shared]
    cdc2 = _cdc_through(reduced, images, node_limit, f"of the {where} through the shared circuits")
    merged = merge_cdcs(g, cdc1, lift_cover(cdc2, rmap), shared)
    return cover_from_cdc(g, merged, c13)


# --------------------------------------------------------------------------
# circumference construction
# --------------------------------------------------------------------------

def cover_via_circumference(g: CubicGraph, longest: Circuit | None = None,
                            node_limit=None) -> ConstructionResult:
    """Short cover from a long circuit, bound 4m/3 + 4k for k = n - circ(G).

    Splits g into the chordless part (searched for a CDC through the circuit)
    and the circuit-plus-chords part (3-edge-coloured), merges the two CDCs,
    and applies the CDC-minus-subgraph step to the lifted (1,3) colour class.
    """
    if not is_connected(g) or not is_bridgeless(g):
        raise HypothesisViolated("graph must be 2-connected")
    if longest is None:
        _, longest = circumference(g, node_limit=node_limit)
    k = g.n - len(longest)
    base = 2 * g.n
    cert = {"circuit": longest, "k": k}

    if k == 0:
        cover = _colouring_cover(g, hamiltonian_3ec(g, longest), ((1, 3), (2, 3)))
        return _check_result(g, cover, base, "circumference", cert)

    c_set = longest.edge_set
    on_c = set(longest.vertices)
    chords = [e for e in range(g.m) if e not in c_set and
              g.edges[e][0] in on_c and g.edges[e][1] in on_c]

    if not chords:
        # the chordless part is g itself: one CDC through the circuit suffices
        cdc = _cdc_through(g, [longest], node_limit, "through the given circuit")
        cover = cover_from_cdc(g, cdc, [longest])
        return _check_result(g, cover, base + 4 * k, "circumference", cert)

    def colouring(reduced, rmap):
        # 1/2 alternating along the circuit's image, 3 on the chords: the
        # phase whose lifted (1, 3) class is larger
        image = trace_circuit(reduced, _image(c_set, rmap))
        phases = [hamiltonian_3ec(reduced, image, swap) for swap in (False, True)]
        return max(phases, key=lambda colour: len(
            lift_edge_set([e for e, c in colour.items() if c in (1, 3)], rmap)))

    chord_set = set(chords)
    cover = _split_cover(g, c_set | chord_set, colouring,
                         [e for e in range(g.m) if e not in chord_set], [longest],
                         node_limit, "chord-free reduction")
    return _check_result(g, cover, base + 4 * k, "circumference", cert)


# --------------------------------------------------------------------------
# oddness-2 construction
# --------------------------------------------------------------------------

def cover_via_oddness2(g: CubicGraph, two_factor=None, links=None,
                       force_base: bool = False, node_limit=None) -> ConstructionResult:
    """Short cover from a 2-factor with exactly two odd components.

    With exactly two components in total, three connecting edges give bound
    4m/3 + 2, improved to 4m/3 + 1 when three consecutive vertices of one
    circuit all have their matching edges going to the other (auto-detected
    unless ``force_base``).  With even components as well, three disjoint
    paths of total length d in the contracted multigraph give 4m/3 + 2d.
    """
    if not cyclic_connectivity_at_least(g, 4):
        raise HypothesisViolated("graph is not cyclically 4-edge-connected")
    if two_factor is None:
        odd, two_factor = oddness(g)
        if odd != 2:
            raise HypothesisViolated(f"oddness is {odd}, not 2")
    f = frozenset(two_factor)
    comps = decompose_even_subgraph(g, f)
    odd_comps = [c for c in comps if len(c) % 2]
    if len(odd_comps) != 2:
        raise HypothesisViolated(f"2-factor has {len(odd_comps)} odd components, need 2")

    if len(comps) == 2:
        return _oddness2_edges(g, f, comps, links, force_base, node_limit)
    return _oddness2_paths(g, f, comps, odd_comps, links, node_limit)


def _consecutive_cross_links(g, c1, c2):
    """Matching edges at three consecutive vertices of one circuit, all going
    to the other circuit; None if the pattern does not occur."""
    for circ, other in ((c1, c2), (c2, c1)):
        other_set = set(other.vertices)
        L = len(circ)
        match_edge = {}
        for v in circ.vertices:
            e = next(e for e in g.incident_edges[v] if e not in circ.edge_set)
            match_edge[v] = e
        for i in range(L):
            window = [circ.vertices[(i + j) % L] for j in range(3)]
            edges = [match_edge[v] for v in window]
            if all(g.other_end(e, v) in other_set for e, v in zip(edges, window)):
                return edges
    return None


def _oddness2_edges(g, f, comps, links, force_base, node_limit):
    c1, c2 = comps
    base = 2 * g.n
    c1_verts, c2_verts = set(c1.vertices), set(c2.vertices)
    cross = [e for e in range(g.m) if e not in f and
             ((g.edges[e][0] in c1_verts) != (g.edges[e][1] in c1_verts))]
    refined = False
    if links is None:
        if not force_base:
            links = _consecutive_cross_links(g, c1, c2)
            refined = links is not None
        if links is None:
            if len(cross) < 3:
                raise HypothesisViolated("fewer than three edges join the two circuits")
            links = cross[:3]
    links = list(links)
    if len(links) != 3 or len(set(links)) != 3:
        raise HypothesisViolated("need three distinct connecting edges")
    for e in links:
        if e not in cross:
            raise HypothesisViolated(f"edge {e} does not join the two circuits")
    ends = [v for e in links for v in g.edges[e]]
    if len(set(ends)) != 6:
        raise HypothesisViolated("connecting edges share an endpoint")

    bound = base + (1 if refined else 2)
    cert = {"two_factor": f, "links": tuple(links), "refined": refined}
    cover = _oddness2_pipeline(g, f, comps, links, node_limit)
    return _check_result(g, cover, bound, "oddness2", cert)


def _oddness2_paths(g, f, comps, odd_comps, links, node_limit):
    base = 2 * g.n
    contracted, cmap = contract_two_factor(g, f)
    s_c = cmap.vertex_map[odd_comps[0].vertices[0]]
    t_c = cmap.vertex_map[odd_comps[1].vertices[0]]
    if links is None:
        paths_c, d = three_disjoint_paths(contracted, s_c, t_c)
        paths = [tuple(cmap.edge_origin[e] for e in p) for p in paths_c]
    else:
        paths = [tuple(p) for p in links]
        d = sum(len(p) for p in paths)
    all_link_edges = [e for p in paths for e in p]
    if len(set(all_link_edges)) != d:
        raise HypothesisViolated("paths share a matching edge")
    for e in all_link_edges:
        if e in f:
            raise HypothesisViolated("path edges must be matching edges")

    cert = {"two_factor": f, "paths": tuple(paths), "d": d}
    cover = _oddness2_pipeline(g, f, comps, all_link_edges, node_limit)
    return _check_result(g, cover, base + 2 * d, "oddness2", cert)


def _oddness2_pipeline(g, f, comps, link_edges, node_limit):
    """Common part: colour g without the links, and search a CDC of the
    links and the circuits they touch through those circuits."""
    link_set = set(link_edges)
    ends = {v for e in link_edges for v in g.edges[e]}
    touched = [c for c in comps if not ends.isdisjoint(c.vertices)]

    def colouring(reduced, rmap):
        # the 2-factor's image is all even circuits: colour each 1/2
        # alternately, in the phase that puts the most link ends on colour-1
        # paths of g, and the rest 3
        components = decompose_even_subgraph(reduced, _image(f, rmap))
        if any(len(c) % 2 for c in components):
            raise AssertionError("2-factor image has an odd component")
        colour = dict.fromkeys(range(reduced.m), 3)
        for comp in components:
            phases = [{e: 1 if (i + phase) % 2 == 0 else 2 for i, e in enumerate(comp.edges)}
                      for phase in (0, 1)]
            colour.update(max(phases, key=lambda local: len(
                {v for e, c in local.items() if c == 1
                 for x in rmap.edge_path[e] for v in g.edges[x] if v in ends})))
        return colour

    return _split_cover(g, [e for e in range(g.m) if e not in link_set], colouring,
                        set().union(*[c.edge_set for c in touched]) | link_set, touched,
                        node_limit, "link-graph reduction")


# --------------------------------------------------------------------------
# perfect matching index constructions
# --------------------------------------------------------------------------

def five_cdc_from_pm_cover(g: CubicGraph, matchings) -> KCdc:
    """5-CDC from four perfect matchings covering the edge set.

    The doubly covered edges form a perfect matching M; the classes are the
    symmetric differences with M plus the 2-factor E - M.
    """
    matchings = [frozenset(mm) for mm in matchings]
    if len(matchings) != 4:
        raise GraphError("need exactly four matchings")
    if len(set(matchings)) != 4:
        raise GraphError("matchings must be distinct (3-edge-colourable graphs "
                         "take the 3-CDC branch)")
    if not all(is_spanning_regular(g, mm, 1) for mm in matchings):
        raise GraphError("input is not a perfect matching")
    count = [0] * g.m
    for mm in matchings:
        for e in mm:
            count[e] += 1
    if any(c == 0 for c in count):
        raise GraphError("matchings do not cover every edge")
    # four perfect matchings covering E give every vertex the weights 2, 1,
    # 1, so the checks below are internal
    doubled = frozenset(e for e in range(g.m) if count[e] >= 2)
    if any(c > 2 for c in count):
        raise AssertionError("an edge is covered more than twice")
    if not is_spanning_regular(g, doubled, 1):
        raise AssertionError("doubly covered edges are not a perfect matching")
    all_edges = frozenset(range(g.m))
    classes = [doubled ^ mm for mm in matchings] + [all_edges - doubled]
    kcdc = KCdc.of(classes)
    report = validate(kcdc, g)
    if not report.ok:
        raise AssertionError(f"constructed classes are not a 5-CDC: {report.problems}")
    return kcdc


def pm_cover_from_five_cdc(g: CubicGraph, cdc: KCdc, two_factor_index=None):
    """Four perfect matchings covering E(g), from a 5-CDC with a 2-factor class."""
    if cdc.k != 5:
        raise ValueError(f"need a 5-CDC, got {cdc.k} classes")
    if any(not cls for cls in cdc.classes):
        raise ValueError("empty colour classes are not allowed")
    report = validate(cdc, g)
    if not report.ok:
        raise ValueError(f"not a valid 5-CDC: {report.problems}")
    if two_factor_index is None:
        two_factor_index = next((i for i, cls in enumerate(cdc.classes)
                                 if is_spanning_regular(g, cls, 2)), None)
        if two_factor_index is None:
            raise GraphError("no colour class is a 2-factor")
    elif not is_spanning_regular(g, cdc.classes[two_factor_index], 2):
        raise GraphError("designated class is not a 2-factor")

    factor = cdc.classes[two_factor_index]
    rest = frozenset(range(g.m)) - factor
    matchings = []
    for i, cls in enumerate(cdc.classes):
        if i == two_factor_index:
            continue
        matchings.append((factor & cls) | (rest - cls))
    covered = set().union(*matchings)
    if covered != frozenset(range(g.m)):
        raise AssertionError("derived matchings do not cover the edge set")
    if not all(is_spanning_regular(g, mm, 1) for mm in matchings):
        raise AssertionError("derived set is not a perfect matching")
    return tuple(matchings)


def scc_cover_from_tau4(g: CubicGraph, node_limit=None) -> ConstructionResult:
    """Cover of length exactly 4m/3 for graphs with perfect matching index <= 4.

    ``node_limit`` bounds the perfect matching index search.
    """
    base = 2 * g.n
    result = perfect_matching_index(g, limit=4, node_limit=node_limit)
    if result.above_limit:
        raise TauTooLarge("perfect matching index exceeds 4")
    if result.tau == 3:
        # three disjoint perfect matchings are a 3-edge-colouring
        colour = {e: i + 1 for i, mm in enumerate(result.matchings) for e in mm}
        cover = _colouring_cover(g, colour, ((1, 3), (2, 3)))
        cert = {"tau": 3, "matchings": result.matchings}
    else:
        kcdc = five_cdc_from_pm_cover(g, result.matchings)
        factor = kcdc.classes[4]
        cover = cover_from_cdc(g, kcdc, factor)
        cert = {"tau": 4, "matchings": result.matchings}
    res = _check_result(g, cover, base, "tau4", cert)
    assert res.length == base
    return res

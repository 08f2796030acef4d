"""Constructive pipelines: structural certificates in, short covers out.

Each construction returns a ``ConstructionResult`` whose cover is validated
against the input graph and whose length is checked against the claimed
bound, so a successful return is a machine-checked certificate.
"""

from __future__ import annotations

from .covers import (
    Circuit,
    CycleCover,
    KCdc,
    circuit_of,
    decompose_even_subgraph,
    is_even_subgraph,
    lift_cover,
    trace_circuit,
    validate,
)
from .errors import GraphError, HypothesisViolated, StrongCdcNotFound, TauTooLarge, _Record
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
    _Budget,
    _colouring_cover,
    circumference,
    find_cdc,
    oddness,
    perfect_matching_index,
    three_disjoint_paths,
)


class ConstructionResult(_Record):
    """A cover (``CycleCover``) with the bound its construction guarantees
    (``claimed_bound``, an int), the ``theorem`` applied (str) and the inputs
    used (``certificate``, a dict)."""

    __slots__ = ("cover", "claimed_bound", "theorem", "certificate")

    @property
    def length(self) -> int:
        return self.cover.length


def _as_circuits(g, c, what):
    if isinstance(c, Circuit):
        return (c,)
    if isinstance(c, (set, frozenset)):
        _check_edge_ids(g, c, what)
        if not is_even_subgraph(g, c):
            raise GraphError(f"{what} {sorted(c)} is not an even subgraph of the graph")
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


def _check_edge_ids(g, edge_ids, what):
    for e in edge_ids:
        if not 0 <= e < g.m:
            raise GraphError(f"{what} holds {e}, which is not an edge id of the graph")


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
    keep weight 1, all others weight 2.  ``GraphError`` unless ``cdc`` (a
    ``CycleCover`` or a ``KCdc``) is a CDC of g that holds those circuits.
    """
    _check_cdc(g, cdc, "cdc")
    return _drop_circuits(g, cdc.as_cover(g) if isinstance(cdc, KCdc) else cdc, c)


def _drop_circuits(g, cdc, c):
    """``cover_from_cdc`` for a ``CycleCover`` known to be a CDC of g."""
    rest = list(cdc.circuits)
    for circ in _as_circuits(g, c, "c"):
        if circ not in rest:
            raise GraphError(f"circuit {circ.edges} is not in the CDC")
        rest.remove(circ)
    return CycleCover.of(rest)


def _check_cdc(g, cdc, what):
    report = validate(cdc, g)
    if report.problems or not report.is_cdc:
        problem = next(iter(report.problems), f"edge weights {report.weight_histogram}, not all 2")
        raise GraphError(f"{what} is not a CDC of the graph: {problem}")


def extract_cdc_from_cover(g: CubicGraph, cover: CycleCover):
    """Recover the weight-1 subgraph and the CDC behind a very short cover.

    For covers of length 4m/3 + k with k in {0,1} the weight-1 edges form a
    2-regular subgraph missing exactly k vertices, and adding its circuits to
    the cover yields a CDC.
    """
    report = validate(cover, g)
    if not report.ok:
        raise GraphError(f"cover is not a cycle cover of the graph: {report.problems[0]}")
    base = 2 * g.n  # 4m/3
    k = cover.length - base
    if k not in (0, 1):
        raise GraphError(f"length {cover.length} = 4m/3 + {k}; extraction needs k in {{0,1}}")
    ones = report.weight_one_edges
    circuits = decompose_even_subgraph(g, ones)
    cdc = CycleCover.of(list(cover.circuits) + list(circuits))
    report = validate(cdc, g)
    if not report.is_cdc:
        raise AssertionError("weight-1 completion is not a CDC")
    return frozenset(ones), cdc


def hamiltonian_3ec(g: CubicGraph, ham: Circuit):
    """Colour a hamiltonian graph: 1/2 alternating along the walk of the
    circuit, 3 on chords."""
    circuit_of(g, ham)
    if len(ham) != g.n:
        raise GraphError("circuit does not span all vertices")
    return _alternating(g, ham)


def _alternating(g, ham):
    colour = dict.fromkeys(range(g.m), 3)
    colour.update(dict.fromkeys(ham.edges[::2], 1))
    colour.update(dict.fromkeys(ham.edges[1::2], 2))
    return colour


def merge_cdcs(g: CubicGraph, cdc1: CycleCover, cdc2: CycleCover, shared) -> CycleCover:
    """Union of two CDCs minus both copies of the shared circuits.

    ``cdc1`` and ``cdc2`` are CDCs of edge-disjoint subgraphs whose union is
    g, except that both contain the shared circuits; the result is a CDC of g.
    """
    shared = _as_circuits(g, shared, "shared")
    circuits = []
    for cdc in (cdc1, cdc2):
        rest = list(cdc.circuits)
        for circ in shared:
            if circ not in rest:
                raise GraphError(f"circuit {circ.edges} missing from a merged CDC")
            rest.remove(circ)
        circuits.extend(rest)
    merged = CycleCover.of(circuits)
    _check_cdc(g, merged, "merge result")
    return merged


def _split_cover(g, factor, coloured, searched, shared, node_limit, where) -> CycleCover:
    """The short cover of a graph cut into a coloured and a searched part.

    ``coloured`` and ``searched`` are edge sets of g that meet only in the
    circuits ``shared``.  The image of ``factor`` (a circuit or a 2-factor of
    g) in the reduction of the coloured part must be a 2-factor of even
    circuits.  Each of them is coloured 1/2 alternately along its walk, in
    the phase whose colour-1 edges lift to the longer paths of g (the first
    phase on a tie), and every other edge 3: that phase has the larger
    lifted (1, 3) class.  Each path of g takes its reduced edge's colour
    and every other edge 0; the colour-pair CDC and the (1, 3) circuits are
    pullbacks of that labelling (``_colouring_cover``).  The reduction of
    the searched part must be 2-connected (``where`` names it); a CDC of it
    through the images of ``shared`` is lifted to g.  The two CDCs are
    merged, and the (1, 3) circuits are dropped from the result.
    """
    reduced, rmap = suppress_degree_two(g, coloured)
    colour = dict.fromkeys(range(reduced.m), 3)
    for circ in decompose_even_subgraph(reduced, _image(factor, rmap)):
        if len(circ) % 2:
            raise AssertionError("2-factor image has an odd component")
        phases = (circ.edges[::2], circ.edges[1::2])
        ones = max(phases, key=lambda ones: sum(len(rmap.edge_path[e]) for e in ones))
        colour.update(dict.fromkeys(circ.edges, 2))
        colour.update(dict.fromkeys(ones, 1))
    label = dict.fromkeys(range(g.m), 0)
    label.update((f, c) for e, c in colour.items() for f in rmap.edge_path[e])
    cdc1 = _colouring_cover(g, label, ((1, 2), (1, 3), (2, 3)))
    c13 = _colouring_cover(g, label, ((1, 3),)).circuits

    reduced, rmap = suppress_degree_two(g, searched)
    if not is_connected(reduced) or not is_bridgeless(reduced):
        raise HypothesisViolated(f"{where} is not 2-connected")
    images = [trace_circuit(reduced, _image(c.edges, rmap)) for c in shared]
    cdc2 = _cdc_through(reduced, images, node_limit, f"of the {where} through the shared circuits")
    merged = merge_cdcs(g, cdc1, lift_cover(cdc2, rmap), shared)
    return _drop_circuits(g, merged, c13)


# --------------------------------------------------------------------------
# circumference construction
# --------------------------------------------------------------------------

def cover_via_circumference(g: CubicGraph, longest: Circuit | None = None,
                            node_limit=None) -> ConstructionResult:
    """Short cover from a long circuit, bound 4m/3 + 4k for k = n - circ(G).

    Splits g into the chordless part (searched for a CDC through the circuit)
    and the circuit-plus-chords part (3-edge-coloured), merges the two CDCs,
    and applies the CDC-minus-subgraph step to the lifted (1,3) colour class.
    The circumference search and the CDC search spend one budget of
    ``node_limit`` nodes.
    """
    if not is_connected(g) or not is_bridgeless(g):
        raise HypothesisViolated("graph must be 2-connected")
    budget = _Budget(node_limit)
    if longest is None:
        _, longest = circumference(g, node_limit=budget)
    else:
        longest = circuit_of(g, longest)
    k = g.n - len(longest)
    base = 2 * g.n
    cert = {"circuit": longest, "k": k}

    if k == 0:
        cover = _colouring_cover(g, _alternating(g, longest), ((1, 3), (2, 3)))
        return _check_result(g, cover, base, "circumference", cert)

    c_set = longest.edge_set
    on_c = set(longest.vertices)
    chords = [e for e in range(g.m) if e not in c_set and
              g.edges[e][0] in on_c and g.edges[e][1] in on_c]

    if not chords:
        # the chordless part is g itself: one CDC through the circuit suffices
        cdc = _cdc_through(g, [longest], budget, "through the given circuit")
        cover = _drop_circuits(g, cdc, [longest])
        return _check_result(g, cover, base + 4 * k, "circumference", cert)

    chord_set = set(chords)
    cover = _split_cover(g, c_set, c_set | chord_set,
                         [e for e in range(g.m) if e not in chord_set], [longest],
                         budget, "chord-free reduction")
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
    if not is_spanning_regular(g, f, 2):
        raise GraphError(f"two_factor {sorted(f)} is not a 2-factor of the graph")
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
    _check_edge_ids(g, links, f"links {links}")
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
    _check_edge_ids(g, all_link_edges, f"links {paths}")
    if len(set(all_link_edges)) != d:
        raise HypothesisViolated("paths share a matching edge")
    for e in all_link_edges:
        if e in f:
            raise HypothesisViolated("path edges must be matching edges")
    # the coloured part keeps each circuit's image even only with link ends
    # of its parity, and leaves a circuit with an end at every vertex apart;
    # the searched part suppresses a circuit with one end into a loop
    ends = {v for e in all_link_edges for v in g.edges[e]}
    for c in comps:
        k = len(ends.intersection(c.vertices))
        if k % 2 != len(c) % 2 or k in (1, len(c)):
            raise HypothesisViolated(
                f"links {paths} end {k} times on a {len(c)}-circuit: each circuit needs "
                "a number of link ends of its parity, neither one nor all its vertices")

    cert = {"two_factor": f, "paths": tuple(paths), "d": d}
    cover = _oddness2_pipeline(g, f, comps, all_link_edges, node_limit)
    return _check_result(g, cover, base + 2 * d, "oddness2", cert)


def _oddness2_pipeline(g, f, comps, link_edges, node_limit):
    """Common part: colour g without the links, and search a CDC of the
    links and the circuits they touch through those circuits."""
    link_set = set(link_edges)
    ends = {v for e in link_edges for v in g.edges[e]}
    touched = [c for c in comps if not ends.isdisjoint(c.vertices)]

    return _split_cover(g, f, [e for e in range(g.m) if e not in link_set],
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
        raise GraphError(f"need a 5-CDC, got {cdc.k} classes")
    if any(not cls for cls in cdc.classes):
        raise GraphError("empty colour classes are not allowed")
    report = validate(cdc, g)
    if not report.ok:
        raise GraphError(f"not a valid 5-CDC: {report.problems}")
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
    """Cover of length exactly 4m/3 for graphs with perfect matching index <= 4:
    at tau 3 two colour pairs of the matchings, at tau 4 the 5-CDC less its
    2-factor class, the pullback of its other classes under the identity.

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
        cover = _colouring_cover(g, range(g.m), kcdc.classes[:4])
        cert = {"tau": 4, "matchings": result.matchings}
    res = _check_result(g, cover, base, "tau4", cert)
    assert res.length == base
    return res

import hashlib
import json
import os
import re
from collections import Counter
from itertools import combinations

import pytest

from conftest import DATA, check_kcdc, load_bridgeless_corpus, load_corpus, load_snarks18
from cyclecover import flower, goldberg, petersen
from cyclecover.constructions import (
    _cdc_through,
    cover_from_cdc,
    cover_via_circumference,
    cover_via_oddness2,
    extract_cdc_from_cover,
    five_cdc_from_pm_cover,
    hamiltonian_3ec,
    merge_cdcs,
    pm_cover_from_five_cdc,
    scc_cover_from_tau4,
)
from cyclecover.covers import (
    Circuit,
    CycleCover,
    KCdc,
    decompose_even_subgraph,
    trace_circuit,
    validate,
)
from cyclecover.errors import (
    GraphError,
    HypothesisViolated,
    NodeLimitExceeded,
    StrongCdcNotFound,
    TauTooLarge,
)
from cyclecover.graphs import is_bridgeless
from cyclecover.solvers import (
    circumference,
    edge_colouring_3,
    enumerate_circuits,
    enumerate_perfect_matchings,
    find_cdc,
    oddness,
    perfect_matching_index,
    shortest_cycle_cover,
)


def _colour_cdc(g):
    colour = edge_colouring_3(g)
    circuits = []
    classes = []
    for pair in ((1, 2), (1, 3), (2, 3)):
        cls = frozenset(e for e in range(g.m) if colour[e] in pair)
        classes.append(cls)
        circuits.extend(decompose_even_subgraph(g, cls))
    return CycleCover.of(circuits), classes


def test_cover_from_cdc_k4(k4):
    cdc, classes = _colour_cdc(k4)
    cover = cover_from_cdc(k4, cdc, classes[0])
    assert cover.length == 2 * k4.m - 4  # one 4-circuit class removed
    assert validate(cover, k4).is_one_two_cover


def test_cover_from_cdc_petersen(pete):
    _, circ = circumference(pete)
    cdc = find_cdc(pete, must_contain=[circ])
    cover = cover_from_cdc(pete, cdc, [circ])
    assert cover.length == 2 * 15 - 9 == 21 == shortest_cycle_cover(pete).length


def test_cover_from_cdc_rejects_absent_circuit(k4, pete):
    cdc, _ = _colour_cdc(k4)
    bogus = trace_circuit(k4, [0, 1, 3])
    if bogus in cdc.circuits:
        cdc = CycleCover.of([c for c in cdc.circuits if c != bogus])
    with pytest.raises(GraphError, match="is not in the CDC"):
        cover_from_cdc(k4, cdc, [bogus])


def test_cover_from_cdc_rejects_a_cover_that_is_no_cdc(pete):
    c = trace_circuit(pete, [0, 1, 2, 3, 4])
    with pytest.raises(GraphError, match="^cdc is not a CDC of the graph: edges not covered"):
        cover_from_cdc(pete, CycleCover.of([c]), [c])


def test_cover_from_cdc_rejects_a_kcdc_naming_no_edge(pete):
    classes = [*find_cdc(pete, k=5).classes]
    classes[0] |= {99}
    with pytest.raises(GraphError, match="^cdc is not a CDC of the graph: class 0 references unknown edge 99"):
        cover_from_cdc(pete, KCdc.of(classes), classes[1])


def test_cdc_through_circuits_that_share_a_transition(pete):
    # the three circuits of a CDC at a vertex take its three pairs of edges
    # once each, so no CDC holds two circuits that pass a vertex by the same
    # two edges
    def transitions(c):
        return {frozenset((c.edges[i - 1], c.edges[i])) for i in range(len(c))}

    pair = next((c, d) for c, d in combinations(enumerate_circuits(pete), 2)
                if transitions(c) & transitions(d))
    with pytest.raises(StrongCdcNotFound, match="^no CDC through the pair$"):
        _cdc_through(pete, pair, None, "through the pair")


def test_extract_cdc_k4(k4):
    res = shortest_cycle_cover(k4)
    ones, cdc = extract_cdc_from_cover(k4, res.cover)
    assert len(ones) == k4.n  # k = 0: a 2-factor
    assert validate(cdc, k4).is_cdc


def test_extract_cdc_petersen(pete):
    res = shortest_cycle_cover(pete)
    ones, cdc = extract_cdc_from_cover(pete, res.cover)
    assert len(ones) == 9
    assert len(trace_circuit(pete, ones)) == 9
    assert validate(cdc, pete).is_cdc


def test_extract_rejects_long_cover(k4):
    cdc, _ = _colour_cdc(k4)  # length 12 = 4m/3 + 4
    with pytest.raises(GraphError, match=r"= 4m/3 \+ 4; extraction needs k in"):
        extract_cdc_from_cover(k4, cdc)


def test_extract_rejects_a_cover_that_misses_edges(pete):
    # four copies of the outer 5-circuit: length 20 = 4m/3, 5 edges covered
    outer = trace_circuit(pete, [0, 1, 2, 3, 4])
    with pytest.raises(GraphError, match="^cover is not a cycle cover of the graph: edges not covered"):
        extract_cdc_from_cover(pete, CycleCover.of([outer] * 4))


def test_hamiltonian_3ec(k4, prism):
    for g in (k4, prism):
        _, ham = circumference(g)
        colour = hamiltonian_3ec(g, ham)
        for v in range(g.n):
            assert sorted(colour[e] for e in g.incident_edges[v]) == [1, 2, 3]
        chords = [e for e in range(g.m) if e not in ham.edge_set]
        assert all(colour[e] == 3 for e in chords)


def test_hamiltonian_3ec_rejects_short(k4):
    tri = trace_circuit(k4, [0, 1, 3])
    with pytest.raises(GraphError, match="circuit does not span all vertices"):
        hamiltonian_3ec(k4, tri)


_BAD_EDGE_SETS = pytest.mark.parametrize("edges, problem", [
    ({0}, "[0] is not an even subgraph of the graph"),
    ({99}, "holds 99, which is not an edge id of the graph"),
], ids=["odd", "out of range"])


@_BAD_EDGE_SETS
def test_cover_from_cdc_checks_an_edge_set(pete, edges, problem):
    with pytest.raises(GraphError, match=re.escape(f"c {problem}")):
        cover_from_cdc(pete, find_cdc(pete), edges)


@_BAD_EDGE_SETS
def test_merge_cdcs_checks_an_edge_set(pete, edges, problem):
    cdc = find_cdc(pete)
    with pytest.raises(GraphError, match=re.escape(f"shared {problem}")):
        merge_cdcs(pete, cdc, cdc, edges)


def test_merge_cdcs_requires_shared(k4):
    cdc, classes = _colour_cdc(k4)
    some = cdc.circuits[0]
    with pytest.raises(GraphError, match="missing from a merged CDC"):
        merge_cdcs(k4, cdc, CycleCover.of([]), [some])


# --- circumference pipeline ---------------------------------------------------

def test_circumference_pipeline_hamiltonian(k4, prism, k33):
    for g in (k4, prism, k33):
        res = cover_via_circumference(g)
        assert res.length == 4 * g.m // 3  # f(0) = 0
        assert res.claimed_bound == 4 * g.m // 3


def test_circumference_pipeline_petersen(pete):
    res = cover_via_circumference(pete)
    assert res.claimed_bound == 4 * 15 // 3 + 4
    assert res.length == 21
    assert validate(res.cover, pete).ok


def test_circumference_pipeline_flower():
    j5 = flower(5)
    res = cover_via_circumference(j5)
    k = j5.n - circumference(j5)[0]
    assert res.claimed_bound == 40 + 4 * k
    assert res.length <= res.claimed_bound
    assert res.length >= shortest_cycle_cover(j5).length


def test_circumference_pipeline_budget_bounds_the_circumference(pete):
    # finding Petersen's 9-circuit takes 18 nodes (8 to refute its
    # 3-edge-colouring, then 10 of DFS), the CDC through it 6, all from one
    # budget
    with pytest.raises(NodeLimitExceeded) as exc:
        cover_via_circumference(pete, node_limit=5)
    assert exc.value.nodes == 6
    with pytest.raises(NodeLimitExceeded):
        cover_via_circumference(pete, node_limit=17)
    with pytest.raises(NodeLimitExceeded) as exc:
        cover_via_circumference(pete, node_limit=23)
    assert (exc.value.search, exc.value.nodes) == ("transitions", 24)
    assert cover_via_circumference(pete, node_limit=24) == cover_via_circumference(pete)


def _refused(call, *args, **kwargs):
    """The message of the plain ``GraphError`` that ``call`` raises: a bad
    input is neither a hypothesis violation nor a proven negative."""
    with pytest.raises(GraphError) as exc:
        call(*args, **kwargs)
    assert type(exc.value) is GraphError
    return str(exc.value)


@pytest.mark.parametrize("case", ["path", "two circuits", "wrong vertex walk", "edge 99"])
def test_circumference_refuses_a_circuit_not_of_the_graph(pete, case):
    # three edges of a path, the ten edges of two 5-circuits, a 9-circuit's
    # edges with its vertices rotated by one place, and a 9-circuit with an
    # edge id that P does not have
    _, c9 = circumference(pete)
    factor = frozenset(range(pete.m)) - enumerate_perfect_matchings(pete)[0]
    circuit = {"path": Circuit((0, 1, 2), (0, 1, 2)),
               "two circuits": Circuit(tuple(sorted(factor)), tuple(range(10))),
               "wrong vertex walk": Circuit(c9.edges, c9.vertices[1:] + c9.vertices[:1]),
               "edge 99": Circuit((99, *c9.edges[1:]), c9.vertices)}[case]
    assert _refused(cover_via_circumference, pete, circuit).startswith(
        f"{circuit} is not a circuit of the graph: ")


def test_hamiltonian_3ec_refuses_a_circuit_not_of_the_graph(pete):
    # P has no Hamiltonian circuit, so no 10-edge walk of it is one
    ham = Circuit(tuple(range(10)), tuple(range(10)))
    assert _refused(hamiltonian_3ec, pete, ham).startswith(
        f"{ham} is not a circuit of the graph: ")


def _reversed(c):
    """The walk of ``c`` from its first vertex in the other direction."""
    return Circuit(c.edges[::-1], c.vertices[:1] + c.vertices[:0:-1])


def test_certificates_take_any_walk_of_the_circuit(prism, pete):
    # a Hamiltonian circuit of the prism and a chorded 9-circuit of P, each
    # walked backwards: the same cover as from the canonical walk
    for g in (prism, pete):
        _, c = circumference(g)
        assert _reversed(c) != c
        res = cover_via_circumference(g, _reversed(c))
        assert res.cover == cover_via_circumference(g, c).cover
        assert res.certificate["circuit"] == c
    _, ham = circumference(prism)
    colour = hamiltonian_3ec(prism, _reversed(ham))
    assert [colour[e] for e in _reversed(ham).edges] == [1, 2] * 3


# --- oddness-2 pipeline -------------------------------------------------------

def test_oddness2_petersen_refined(pete):
    res = cover_via_oddness2(pete)
    assert res.certificate["refined"]
    assert res.claimed_bound == 21
    assert res.length == 21


def test_oddness2_petersen_base(pete):
    res = cover_via_oddness2(pete, force_base=True)
    assert res.claimed_bound == 22
    assert res.length <= 22


def test_oddness2_flower():
    j5 = flower(5)
    res = cover_via_oddness2(j5)
    assert res.length <= 42
    assert res.length >= 40  # never beats the exact solver


def test_oddness2_paths_variant():
    # the first 18-vertex snark has a 2-factor with two odd circuits and one
    # even circuit, which forces the three-disjoint-paths branch
    from conftest import load_snarks18
    from cyclecover.covers import decompose_even_subgraph as dec

    g = load_snarks18()[0]
    alle = frozenset(range(g.m))
    witness = None
    for pm in enumerate_perfect_matchings(g):
        comps = dec(g, alle - pm)
        if sum(1 for c in comps if len(c) % 2) == 2 and len(comps) >= 3:
            witness = alle - pm
            break
    assert witness is not None
    res = cover_via_oddness2(g, two_factor=witness)
    d = res.certificate["d"]
    assert res.claimed_bound == 4 * g.m // 3 + 2 * d
    assert validate(res.cover, g).ok
    assert res.length <= res.claimed_bound
    assert res.length >= shortest_cycle_cover(g).length


def test_oddness2_rejects_wrong_oddness(k4):
    # K4 is 3-edge-colourable: oddness 0, no 2-odd-component witness
    with pytest.raises(HypothesisViolated, match="oddness is 0, not 2"):
        cover_via_oddness2(k4)


def test_oddness2_rejects_four_odd_components():
    # G5 is cyclically 4-edge-connected and has a 2-factor with four odd
    # circuits (5, 5, 5 and 17) besides an even one
    g = goldberg(5)
    everything = frozenset(range(g.m))
    factor = next(everything - pm for pm in enumerate_perfect_matchings(g)
                  if sum(len(c) % 2 for c in decompose_even_subgraph(g, everything - pm)) == 4)
    with pytest.raises(HypothesisViolated, match="2-factor has 4 odd components, need 2"):
        cover_via_oddness2(g, two_factor=factor)


def test_oddness2_refuses_a_link_graph_that_is_not_2_connected():
    # the path variant takes any distinct matching edges as links.  Links
    # that give each odd circuit three ends and each even one two or none
    # keep the 2-factor's image even, so the coloured part colours, but the
    # searched part can still have a bridge or fall apart
    from conftest import load_snarks18

    cases = [
        # G5: edge 0 joins the odd circuits, and edges 1 and 47 are chords
        # of them, so edge 0 is a bridge of the searched part
        (goldberg(5), (0, 1, 47), [8, 15, 17], [(1, 2), (1, 1), (2, 2)]),
        # snarks18[0]: three edges join the odd 5-circuits, and edge 8 is a
        # chord of the 8-circuit, a second piece of the searched part
        (load_snarks18()[0], (8, 14, 22, 26), [5, 5, 8], [(2, 2), (0, 1), (0, 1), (0, 1)]),
    ]
    for g, links, sizes, ends in cases:
        everything = frozenset(range(g.m))
        factor = next(everything - pm for pm in enumerate_perfect_matchings(g) if set(links) <= pm
                      and [len(c) for c in decompose_even_subgraph(g, everything - pm)] == sizes)
        where = {v: i for i, c in enumerate(decompose_even_subgraph(g, factor)) for v in c.vertices}
        assert [tuple(sorted(where[v] for v in g.edges[e])) for e in links] == ends
        with pytest.raises(HypothesisViolated, match="link-graph reduction is not 2-connected"):
            cover_via_oddness2(g, two_factor=factor, links=[(e,) for e in links])
    # on the last case's snarks18[0] and (5, 5, 8) 2-factor, links that give
    # an odd circuit no end, a circuit exactly one end or an end at each of
    # its vertices are refused before any reduction: edge 8 is a chord of the
    # 8-circuit, edge 14 joins the two 5-circuits, and the five edges end at
    # every vertex of the second 5-circuit
    for links, k, size in (((8,), 0, 5), ((14,), 1, 5), ((14, 15, 18, 22, 26), 5, 5)):
        paths = [(e,) for e in links]
        with pytest.raises(HypothesisViolated) as exc:
            cover_via_oddness2(g, two_factor=factor, links=paths)
        assert str(exc.value).startswith(f"links {paths} end {k} times on a {size}-circuit")


def test_oddness2_refuses_a_two_factor_that_is_not_one(pete):
    assert _refused(cover_via_oddness2, pete, two_factor=range(10)) == \
        f"two_factor {list(range(10))} is not a 2-factor of the graph"


@pytest.mark.parametrize("link", [999, -1])
def test_oddness2_refuses_link_ids_outside_the_graph(pete, link):
    # -1 is not the last edge.  The path variant runs on a G5 2-factor with
    # two odd circuits and an even one, the edge variant on P's
    g = goldberg(5)
    everything = frozenset(range(g.m))
    factor = next(everything - pm for pm in enumerate_perfect_matchings(g)
                  if len(comps := decompose_even_subgraph(g, everything - pm)) >= 3
                  and sum(len(c) % 2 for c in comps) == 2)
    assert _refused(cover_via_oddness2, g, two_factor=factor, links=[(link,)]) == \
        f"links {[(link,)]} holds {link}, which is not an edge id of the graph"
    links = [*cover_via_oddness2(pete, force_base=True).certificate["links"][:2], link]
    assert _refused(cover_via_oddness2, pete, links=links) == \
        f"links {links} holds {link}, which is not an edge id of the graph"


def _certificate_records():
    """The cover and bound of each certificate call on a fixed set of inputs,
    grouped by graph and sorted by input within a group.

    ``cover_via_oddness2`` runs on every 2-factor with exactly two odd
    circuits of P, J5, J7, G5 and the ``snarks18`` graphs: the edge variant
    (two circuits) with and without ``force_base``, the path variant (even
    circuits as well) as is.  ``cover_via_circumference`` runs on every
    circuit with a chord of the bridgeless ``cubic_le12`` graphs up to 10
    vertices and P, and on the longest such circuits of the 12-vertex ones
    and J5.  A 2-factor is given by the perfect matching it leaves out.
    """
    odd2 = [("petersen", petersen()), ("J5", flower(5)), ("J7", flower(7)), ("G5", goldberg(5))]
    odd2 += [(f"snarks18[{i}]", g) for i, g in enumerate(load_snarks18())]
    for name, g in odd2:
        everything = frozenset(range(g.m))
        runs = []
        for pm in enumerate_perfect_matchings(g):
            comps = decompose_even_subgraph(g, everything - pm)
            if sum(len(c) % 2 for c in comps) != 2:
                continue
            for force_base in (False, True) if len(comps) == 2 else (False,):
                res = cover_via_oddness2(g, two_factor=everything - pm, force_base=force_base)
                cert = {key: value for key, value in res.certificate.items() if key != "two_factor"}
                runs.append({"matching": sorted(pm), "force_base": force_base,
                             "bound": res.claimed_bound, "certificate": json.loads(json.dumps(cert)),
                             "cover": [list(c.edges) for c in res.cover.circuits]})
        yield name, "oddness2", sorted(runs, key=lambda run: (run["matching"], run["force_base"]))
    circ = [(f"cubic_le12[{i}]", g) for i, g in enumerate(load_corpus(12)) if is_bridgeless(g)]
    circ += [("petersen", petersen()), ("J5", flower(5))]
    for name, g in circ:
        chorded = [c for c in enumerate_circuits(g) if len(c) < g.n and any(
            e not in c.edge_set and set(g.edges[e]) <= set(c.vertices) for e in range(g.m))]
        longest = max((len(c) for c in chorded), default=0)
        runs = []
        for c in chorded:
            if g.n <= 10 or len(c) == longest:
                res = cover_via_circumference(g, c)
                runs.append({"circuit": list(c.edges), "bound": res.claimed_bound,
                             "cover": [list(d.edges) for d in res.cover.circuits]})
        yield name, "circumference", runs


def _certificate_golden():
    """The lines of ``certificate_golden.jsonl``: for each group of
    ``_certificate_records``, its count of calls by bound and cover length,
    and the SHA-256 of its records, which pins every input, bound and cover
    (the records themselves run to 850 kB)."""
    for name, call, runs in _certificate_records():
        tally = Counter((run["bound"], sum(map(len, run["cover"]))) for run in runs)
        text = json.dumps(runs, sort_keys=True, separators=(",", ":"))
        yield {"graph": name, "call": call, "calls": [[*key, n] for key, n in sorted(tally.items())],
               "sha256": hashlib.sha256(text.encode("ascii")).hexdigest()}


def test_certificates_match_golden():
    # the circumference and oddness-2 certificates keep their covers: the
    # golden file was written before the phase rule moved into _split_cover.
    # A failing group is found by diffing its _certificate_records at both
    # commits
    with open(os.path.join(DATA, "certificate_golden.jsonl"), encoding="ascii") as fh:
        want = [json.loads(line) for line in fh]
    assert list(_certificate_golden()) == want


# --- tau constructions ---------------------------------------------------------

def test_five_cdc_roundtrip_flower():
    j5 = flower(5)
    res = perfect_matching_index(j5, limit=4)
    assert res.tau == 4
    kcdc = five_cdc_from_pm_cover(j5, res.matchings)
    rep = validate(kcdc, j5)
    assert rep.ok and rep.is_cdc
    factor = kcdc.classes[4]
    deg = [0] * j5.n
    for e in factor:
        u, v = j5.edges[e]
        deg[u] += 1
        deg[v] += 1
    assert all(d == 2 for d in deg)
    # each M xor M_i is an even subgraph of even circuits
    for cls in kcdc.classes[:4]:
        assert all(len(c) % 2 == 0 for c in decompose_even_subgraph(j5, cls))
    back = pm_cover_from_five_cdc(j5, kcdc)
    assert frozenset().union(*back) == frozenset(range(j5.m))
    assert len(back) == 4


def test_five_cdc_rejects_padding(k4, pete):
    res = perfect_matching_index(k4)
    m1, m2, m3 = res.matchings
    with pytest.raises(GraphError, match="matchings must be distinct"):
        five_cdc_from_pm_cover(k4, [m1, m2, m3, m1])
    # an edge id outside 0..m-1 is no perfect matching
    with pytest.raises(GraphError, match="input is not a perfect matching"):
        five_cdc_from_pm_cover(pete, [{99}, *enumerate_perfect_matchings(pete)[:3]])


def test_five_cdc_rejects_uncovering(pete, j5):
    pms = enumerate_perfect_matchings(pete)[:4]
    union = frozenset().union(*pms)
    if union == frozenset(range(pete.m)):
        pytest.skip("unexpected: four matchings cover the Petersen graph")
    with pytest.raises(GraphError, match="matchings do not cover every edge"):
        five_cdc_from_pm_cover(pete, pms)
    # -1 must not stand in for edge m - 1, which is then left uncovered
    last = j5.m - 1
    pms = [{-1 if e == last else e for e in mm}
           for mm in perfect_matching_index(j5, limit=4).matchings]
    with pytest.raises(GraphError, match="input is not a perfect matching"):
        five_cdc_from_pm_cover(j5, pms)


def test_pm_cover_rejects_empty_classes(k4):
    # a bad 5-CDC is bad input, as in the module's other checks
    _, classes = _colour_cdc(k4)
    padded = KCdc.of(classes + [frozenset(), frozenset()])
    with pytest.raises(GraphError, match="empty colour classes are not allowed"):
        pm_cover_from_five_cdc(k4, padded)


def test_pm_cover_rejects_a_kcdc_that_is_not_a_five_cdc(pete):
    with pytest.raises(GraphError, match="need a 5-CDC, got 4 classes"):
        pm_cover_from_five_cdc(pete, KCdc.of([{0}] * 4))
    with pytest.raises(GraphError, match="not a valid 5-CDC"):
        pm_cover_from_five_cdc(pete, KCdc.of([{0}] * 5))


def test_pm_cover_requires_two_factor_class(j5):
    res = perfect_matching_index(j5, limit=4)
    kcdc = five_cdc_from_pm_cover(j5, res.matchings)
    # swap the 2-factor class out for a non-2-factor even subgraph? use a
    # wrong designated index instead
    with pytest.raises(GraphError, match="designated class is not a 2-factor"):
        pm_cover_from_five_cdc(j5, kcdc, two_factor_index=0)


def test_tau4_construction(k4, j5, pete):
    res = scc_cover_from_tau4(k4)
    assert res.length == 8
    res = scc_cover_from_tau4(j5)
    assert res.length == 40
    rep = validate(res.cover, j5)
    assert rep.is_one_two_cover
    with pytest.raises(TauTooLarge):
        scc_cover_from_tau4(pete)


def test_tau3_cover_comes_from_its_witness(k4, monkeypatch):
    # the three matchings of a tau-3 witness are a 3-edge-colouring, so no
    # colouring search runs, and the weight-1 edges are the first two classes
    from cyclecover import solvers

    calls = []
    original = solvers._label_search

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(solvers, "_label_search", counting)
    for g in (k4, load_bridgeless_corpus(12)[-1]):
        res = scc_cover_from_tau4(g)
        assert res.certificate["tau"] == 3
        first, second, _ = res.certificate["matchings"]
        assert res.cover.weight_one_edges(g.m) == first | second
    assert calls == []


def test_tauthm_equivalence_small(k4, prism, k33, pete):
    for g in (k4, prism, k33, pete, flower(5), *load_bridgeless_corpus(10)):
        tau_ok = perfect_matching_index(g, limit=4).tau is not None
        kcdc = find_cdc(g, k=5, two_factor_class=True)
        assert tau_ok == (kcdc is not None)
        if kcdc is not None:
            check_kcdc(g, kcdc, 5, two_factor_class=True)

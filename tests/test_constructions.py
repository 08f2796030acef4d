import pytest

from conftest import check_kcdc, load_bridgeless_corpus
from cyclecover import flower, goldberg
from cyclecover.constructions import (
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
from cyclecover.covers import CycleCover, KCdc, decompose_even_subgraph, trace_circuit, validate
from cyclecover.errors import GraphError, HypothesisViolated, NodeLimitExceeded, TauTooLarge
from cyclecover.solvers import (
    circumference,
    edge_colouring_3,
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
    # finding Petersen's 9-circuit takes 10 nodes, the CDC through it 4
    with pytest.raises(NodeLimitExceeded) as exc:
        cover_via_circumference(pete, node_limit=5)
    assert exc.value.nodes == 6
    assert cover_via_circumference(pete, node_limit=10) == cover_via_circumference(pete)


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
    _, classes = _colour_cdc(k4)
    padded = KCdc.of(classes + [frozenset(), frozenset()])
    with pytest.raises(ValueError):
        pm_cover_from_five_cdc(k4, padded)


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

import pytest

from conftest import load_corpus
from substrate import canonical_form, enumerate_cubic_graphs, isomorphic
from cyclecover.errors import GraphError
from cyclecover.families import (
    flower,
    goldberg,
    parse_adjacency,
    parse_graph6,
    permutation_snark,
    petersen,
    write_adjacency,
    write_graph6,
)
from cyclecover.graphs import CubicGraph, Multigraph, girth, is_bridgeless


def test_petersen_parameters(pete):
    assert (pete.n, pete.m, girth(pete)) == (10, 15, 5)


def test_flower_j5():
    j5 = flower(5)
    assert (j5.n, j5.m) == (20, 30)
    assert girth(j5) == 5


def test_flower_rejects_bad_parameter():
    for k in (3, 4, 6):
        with pytest.raises(GraphError, match=f"flower parameter must be odd and >= 5, got {k}"):
            flower(k)


def test_goldberg_rejects_bad_parameter():
    for k in (3, 4, 6):
        with pytest.raises(GraphError, match=f"goldberg parameter must be odd and >= 5, got {k}"):
            goldberg(k)


def test_permutation_identity_is_prism_like():
    g = permutation_snark((0, 1, 2, 3, 4))
    # the pentagonal prism: 3-edge-colourable, so not a snark
    from cyclecover.solvers import edge_colouring_3

    assert (g.n, g.m) == (10, 15)
    assert edge_colouring_3(g) is not None


def test_permutation_pentagram_is_petersen(pete):
    g = permutation_snark((0, 2, 4, 1, 3))
    assert isomorphic(g, pete)


# --- graph6 -----------------------------------------------------------------

def test_graph6_k4_bit_exact(k4):
    # by hand: n=4 -> 'C'; upper triangle of K4 is all ones -> 111111 -> '~'
    assert write_graph6(k4) == "C~"
    g = parse_graph6("C~")
    assert (g.n, g.m) == (4, 6)


def test_graph6_roundtrip_families(pete, j5):
    for g in (pete, j5, flower(7), goldberg(5)):
        line = write_graph6(g)
        again = parse_graph6(line)
        assert write_graph6(again) == line
        assert sorted(map(tuple, map(sorted, again.edges))) == \
            sorted(map(tuple, map(sorted, g.edges)))


def test_graph6_header_accepted(pete):
    line = ">>graph6<<" + write_graph6(pete)
    assert parse_graph6(line).n == 10


def test_graph6_truncated_rejected(pete):
    line = write_graph6(pete)
    with pytest.raises(GraphError, match="expected 8 data bytes for n=10, got 7"):
        parse_graph6(line[:-1])


def test_graph6_noncubic_rejected():
    with pytest.raises(GraphError, match="non-cubic graph: vertex 0 has degree 0"):
        parse_graph6("D??")  # 5 isolated vertices


def test_graph6_write_rejects_parallel():
    g = CubicGraph(2, [(0, 1), (0, 1), (0, 1)])
    with pytest.raises(GraphError, match="graph6 cannot encode parallel edges"):
        write_graph6(g)


# --- adjacency text ----------------------------------------------------------

def test_adjacency_roundtrip(pete):
    text = write_adjacency(pete)
    g = parse_adjacency(text)
    assert write_adjacency(g) == text


def test_adjacency_comments_and_loops():
    with pytest.raises(GraphError, match="line 1: loop at vertex 0"):
        parse_adjacency("0 0\n")
    with pytest.raises(GraphError, match="line 1: expected 'u v'"):
        parse_adjacency("0 1 2\n")
    with pytest.raises(GraphError, match="no edges"):
        parse_adjacency("# nothing\n")


def test_adjacency_parallel_edges_and_degree_cap():
    g = parse_adjacency("0 1\n0 1\n0 1\n")
    assert isinstance(g, CubicGraph) and g.m == 3
    with pytest.raises(GraphError, match="vertex 0 has degree 4 > 3"):
        parse_adjacency("0 1\n0 1\n0 1\n0 1\n")


def test_adjacency_subcubic_gives_multigraph():
    g = parse_adjacency("0 1\n1 2\n2 0\n")
    assert isinstance(g, Multigraph) and not isinstance(g, CubicGraph)


# --- enumeration and canonical forms ----------------------------------------

def test_canonical_form_distinguishes(prism, k33):
    assert canonical_form(prism) != canonical_form(k33)
    relabeled = CubicGraph(6, [(5 - u, 5 - v) for u, v in prism.edges])
    assert canonical_form(relabeled) == canonical_form(prism)


@pytest.mark.parametrize("n,count", [(4, 1), (6, 2), (8, 5)])
def test_enumerate_cubic_counts(n, count):
    gs = enumerate_cubic_graphs(n)
    assert len(gs) == count
    keys = {canonical_form(g) for g in gs}
    assert len(keys) == count


@pytest.mark.slow
def test_enumerate_cubic_count_n10():
    # regenerate the corpus up to n = 10 and compare it class by class
    generated = {n: enumerate_cubic_graphs(n) for n in (4, 6, 8, 10)}
    assert len(generated[10]) == 19
    assert ({canonical_form(g) for gs in generated.values() for g in gs}
            == {canonical_form(g) for g in load_corpus(10)})


@pytest.mark.parametrize("k,want_girth", [(5, 5), (7, 6)])
def test_flower_snark_invariants(k, want_girth):
    from cyclecover.graphs import cyclic_connectivity_at_least
    from cyclecover.solvers import edge_colouring_3

    g = flower(k)
    assert girth(g) == want_girth
    assert is_bridgeless(g)
    assert cyclic_connectivity_at_least(g, 4)
    assert edge_colouring_3(g) is None


@pytest.mark.parametrize("k", [5, pytest.param(7, marks=pytest.mark.slow)])
def test_goldberg_snark_invariants(k):
    from cyclecover.graphs import cyclic_connectivity_at_least
    from cyclecover.solvers import edge_colouring_3, oddness, perfect_matching_index

    g = goldberg(k)
    assert (g.n, g.m) == (8 * k, 12 * k)
    assert girth(g) == 5
    assert is_bridgeless(g)
    assert cyclic_connectivity_at_least(g, 4)
    assert edge_colouring_3(g) is None
    res = perfect_matching_index(g, limit=4)
    assert res.tau == 4
    # the witness: four perfect matchings whose union is E
    assert len(res.matchings) == 4
    assert frozenset().union(*res.matchings) == frozenset(range(g.m))
    for mm in res.matchings:
        ends = [x for e in mm for x in g.edges[e]]
        assert sorted(ends) == list(range(g.n))
    assert oddness(g)[0] == 2


def test_corpus_file_consistent():
    gs = load_corpus(12)
    by_n = {}
    for g in gs:
        by_n[g.n] = by_n.get(g.n, 0) + 1
    assert by_n == {4: 1, 6: 2, 8: 5, 10: 19, 12: 85}
    keys = {canonical_form(g) for g in gs if g.n <= 8}
    assert len(keys) == 8

import glob
import json
import os
import random

import pytest

from conftest import DATA, load_corpus, relabelled
from substrate import (
    canonical_form,
    enumerate_cubic_graphs,
    graph6_edges,
    graph6_edges_octal,
    isomorphic,
    prism_graph,
    write_graph6_matrix,
)
from cyclecover import families
from cyclecover.errors import GraphError
from cyclecover.families import (
    _GOLDBERG_QUOTIENT,
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


def test_graph6_reader_matches_the_bit_list_reference():
    from test_solvers import _random_cubic_24_to_40

    lines = []
    for name in ("cubic_le12.g6", "snarks18.g6", "analyze_golden.g6", "analyze_snarks_golden.g6"):
        with open(os.path.join(DATA, name)) as fh:
            lines += [line.strip() for line in fh if line.strip()]
    # J21 has 84 vertices, past one size byte
    j21 = write_graph6(flower(21))
    assert j21.startswith("~?@S")
    lines += [j21, *map(write_graph6, _random_cubic_24_to_40())]
    for line in lines:
        assert list(parse_graph6(line).edges) == graph6_edges(line)


@pytest.mark.parametrize("line, message", [
    ("Ihe!@G\x7fAo", "byte 33 outside graph6 range"),  # the first of two bad bytes
    ("Ihe\x7f@G!Ao", "byte 127 outside graph6 range"),
    ("IheA@GUAp", "nonzero padding bits"),  # Petersen with a padding bit set
    ("Ihe!@GUAp", "byte 33 outside graph6 range"),  # a bad byte before the padding
    ("Ihe!@GUA", "expected 8 data bytes for n=10, got 7"),  # the length first
    ("4", "bad byte in graph6 size field"),  # a size byte below 63
    ("\x7f", "bad byte in graph6 size field"),  # and one above 126
    ("?", "graph6 line encodes an empty graph"),  # n = 0
    ("~???", "graph6 line encodes an empty graph"),  # n = 0 in the long form
    ("~", "truncated graph6 size field"),  # a long-form size field cut short
    ("~?", "truncated graph6 size field"),
    ("~??", "truncated graph6 size field"),
    ("~~", "graph6 sizes beyond 258047 vertices are not supported"),  # the 8-byte form
])
def test_graph6_checks_in_order(line, message):
    with pytest.raises(GraphError, match=message):
        graph6_edges(line)
    with pytest.raises(GraphError, match=message):
        parse_graph6(line)


def test_graph6_lines_of_the_data_files_match_the_octal_reader():
    # every line reads as the octal reader reads it and writes back as itself
    for name in sorted(glob.glob(os.path.join(DATA, "*.g6"))):
        with open(name) as fh:
            for line in filter(None, map(str.strip, fh)):
                g = parse_graph6(line)
                assert list(g.edges) == graph6_edges_octal(line)
                assert write_graph6(g) == line


def _codec_graphs():
    """Petersen, J5-J33, G5-G13, the prisms C_k x K2 for k = 3..200 and
    k = 201, 534, 867, 1200 (the matrix writer is quadratic in n), and 200
    random cubic graphs of 24-200 vertices."""
    from test_solvers import _random_cubic

    rng = random.Random(4606)
    return [petersen(), *map(flower, range(5, 35, 2)), *map(goldberg, range(5, 15, 2)),
            *map(prism_graph, [*range(3, 201), *range(201, 1201, 333)]),
            *(_random_cubic(2 * rng.randrange(12, 101), rng) for _ in range(200))]


def test_graph6_codec_matches_the_matrix_writer_and_the_octal_reader():
    for g in _codec_graphs():
        line = write_graph6(g)
        assert line == write_graph6_matrix(g)
        assert list(parse_graph6(line).edges) == graph6_edges_octal(line)


# the graph6 lines behind the graph6 cases of error_golden.jsonl (test_cli's _error_cases)
_GOLDEN_GRAPH6_LINES = {
    "graph6 short": "I??",
    "graph6 size": "~~",
    "graph6 byte": "I???????\x7f",
    "graph6 padding": "I???????@",
    "graph6 isolated vertices": "D??",
    "graph6 non-cubic": "Cw",
    "analyze graph6 bad line": "A_",
}


def test_graph6_errors_of_the_golden_file_through_the_library():
    with open(os.path.join(DATA, "error_golden.jsonl"), encoding="ascii") as fh:
        golden = {rec["case"]: rec["stderr"] for rec in map(json.loads, fh) if rec["exit"]}
    assert {case for case in golden if "graph6" in case} == set(_GOLDEN_GRAPH6_LINES)
    for case, line in _GOLDEN_GRAPH6_LINES.items():
        with pytest.raises(GraphError) as exc:
            parse_graph6(line)
        assert f"error: {exc.value}\n" == golden[case]


def test_graph6_round_trip_in_the_long_size_form():
    # C_3000 x K2 has 6,000 vertices, a four-byte size field
    g = prism_graph(3000)
    line = write_graph6(g)
    assert line.startswith("~@\\o")
    again = parse_graph6(line)
    assert sorted(map(tuple, map(sorted, again.edges))) == sorted(map(tuple, map(sorted, g.edges)))
    assert write_graph6(again) == line


@pytest.mark.parametrize("line, char", [
    ("IheA@GUA\u00e9", "\u00e9"),  # was read as "?", six zero bits: a non-cubic graph
    ("I\u00e9eA@GUAo", "\u00e9"),
    ("IheA@GUAo\u2192\u00e9", "\u2192"),  # the first of two
])
def test_graph6_refuses_a_non_ascii_character(line, char):
    with pytest.raises(GraphError, match=f"^non-ASCII character '{char}' in graph6 line$"):
        parse_graph6(line)


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


def test_adjacency_refuses_oversized_ids_before_building(monkeypatch):
    # an id that needs more than graph6's 258,047 vertices is refused on its
    # line, before any graph is allocated, however large it is
    def refuse(*args):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(families, "Multigraph", refuse)
    for text, vertex in (("0 5000000\n", 5000000), ("1 2\n258047 0\n", 258047),
                         (f"{10 ** 18} 1\n", 10 ** 18)):
        with pytest.raises(GraphError, match=f"vertex {vertex} needs more than the 258047 "):
            parse_adjacency(text)
    with pytest.raises(AssertionError, match="a graph was built"):
        parse_adjacency("258046 0\n")


def test_adjacency_subcubic_gives_multigraph():
    g = parse_adjacency("0 1\n1 2\n2 0\n")
    assert isinstance(g, Multigraph) and not isinstance(g, CubicGraph)


# --- enumeration and canonical forms ----------------------------------------

def test_canonical_form_distinguishes(prism, k33):
    assert canonical_form(prism) != canonical_form(k33)
    relabeled = CubicGraph(6, [(5 - u, 5 - v) for u, v in prism.edges])
    assert canonical_form(relabeled) == canonical_form(prism)


def test_isomorphic_agrees_with_canonical_form():
    # every pair of corpus classes up to 10 vertices, the second relabelled
    gs = load_corpus(10)
    keys = [canonical_form(g) for g in gs]
    for i, g in enumerate(gs):
        for j, h in enumerate(gs):
            assert isomorphic(g, relabelled(h, i + j)) == (keys[i] == keys[j])


def test_isomorphic_tells_the_goldberg_ring_variants_apart():
    # the crossed pairing of the links (3 -> 5 and 7 -> 4, see families.py)
    # gives a second ring with the same invariants that is not G5
    links = ((0, 2, 1), (4, 1, 1))
    quotient = _GOLDBERG_QUOTIENT[:-2] + links
    crossed = CubicGraph(40, [(u + 8 * i, v + 8 * ((i + step) % 5))
                              for u, v, step in quotient for i in range(5)])
    g = goldberg(5)
    assert not isomorphic(g, crossed)
    assert isomorphic(g, relabelled(g, 1)) and isomorphic(crossed, relabelled(crossed, 1))


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

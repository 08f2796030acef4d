import pytest

from conftest import relabelled
from cyclecover import flower
from cyclecover.covers import validate
from cyclecover.errors import GraphError, NodeLimitExceeded
from cyclecover.families import parse_graph6, write_graph6
from cyclecover.pcolour import (
    _P_STARS,
    REFERENCE,
    PetersenColouring,
    _optimal_p_covers,
    best_pullback_cover,
    find_petersen_colouring,
    format_colouring,
    is_balanced,
    parse_colouring,
    pullback_cover,
    verify_petersen_colouring,
)
from cyclecover.solvers import _Budget, _label_search, edge_colouring_3, shortest_cycle_cover


def star_colouring(g):
    """Map the three colour classes of a 3-edge-colourable graph onto the
    three edges at vertex 0 of the reference graph."""
    colour = edge_colouring_3(g)
    assert colour is not None
    star = REFERENCE.incident_edges[0]
    return PetersenColouring(tuple(star[colour[e] - 1] for e in range(g.m)))


def test_identity_colouring_valid(pete):
    ident = PetersenColouring(tuple(range(15)))
    assert verify_petersen_colouring(pete, ident) == (True, None)
    assert is_balanced(ident, 15)


def test_star_colouring_valid(k4):
    c = star_colouring(k4)
    assert verify_petersen_colouring(k4, c) == (True, None)
    # twelve fibers are empty: wildly unbalanced
    assert not is_balanced(c, k4.m)
    assert sorted(c.fiber_sizes(), reverse=True)[:3] == [2, 2, 2]


def test_invalid_map_detected(pete):
    ident = list(range(15))
    ident[0], ident[7] = ident[7], ident[0]
    ok, bad = verify_petersen_colouring(pete, PetersenColouring(tuple(ident)))
    assert not ok and bad is not None


def test_partial_assignment_rejected(pete):
    with pytest.raises(GraphError, match="assignment must cover every edge"):
        verify_petersen_colouring(pete, PetersenColouring((None,) * 15))


def test_best_pullback_rejects_a_partial_assignment(pete):
    # the colouring refuses an unassigned edge itself, before any reader
    # (here fiber_sizes) can meet one
    with pytest.raises(GraphError, match="assignment must cover every edge"):
        best_pullback_cover(pete, PetersenColouring((None,) * 15))
    with pytest.raises(GraphError, match="assignment must cover every edge"):
        PetersenColouring((*range(14), None))
    with pytest.raises(GraphError, match="assignment must cover every edge"):
        verify_petersen_colouring(pete, PetersenColouring(tuple(range(14))))


@pytest.mark.parametrize("p", [-1, 99])
def test_colouring_rejects_ids_outside_p(p):
    # -1 was counted into edge 14 of P, so is_balanced judged another
    # colouring, and 99 raised a bare IndexError
    with pytest.raises(GraphError, match=f"assignment names {p}, which is not an edge of P"):
        PetersenColouring((p,) * 15)
    with pytest.raises(GraphError, match=f"assignment names {p}"):
        PetersenColouring((*range(14), p))


def test_find_colouring(k4, pete, j5):
    for g in (k4, pete, j5):
        c = find_petersen_colouring(g)
        assert c is not None
        assert verify_petersen_colouring(g, c) == (True, None)


def test_colouring_search_is_order_robust():
    # the bare labelling search takes 7,939, 1,639 and 2,473 nodes on J9 in
    # the family order and the two relabellings; the matching cut keeps J9
    # under 1,000 nodes in each order here, and J11 under 2,000
    j9 = flower(9)
    for g in (j9, relabelled(j9, 1), relabelled(j9, 2)):
        with pytest.raises(NodeLimitExceeded):
            _label_search(g, _P_STARS, _Budget(1000))
    for g, limit in ((j9, 1000), (parse_graph6(write_graph6(j9)), 1000),
                     (relabelled(j9, 1), 1000), (relabelled(j9, 2), 1000), (flower(11), 2000)):
        c = find_petersen_colouring(g, node_limit=limit)
        assert verify_petersen_colouring(g, c) == (True, None)


def test_balance_forced_by_divisibility(k4, pete, j5):
    # 15 does not divide m  =>  every valid colouring is unbalanced
    for g in (k4, flower(7)):
        if g.m % 15 != 0:
            c = find_petersen_colouring(g)
            assert not is_balanced(c, g.m)


def test_optimal_p_covers_shape():
    covers = _optimal_p_covers()
    assert len(covers) == 20
    for c in covers:
        assert c.length == 21
        ones = c.weight_one_edges(15)
        assert len(ones) == 9


def test_pullback_identity(pete):
    ident = PetersenColouring(tuple(range(15)))
    cover_p = _optimal_p_covers()[0]
    pulled = pullback_cover(pete, ident, cover_p)
    assert pulled.length == 21
    assert validate(pulled, pete).ok


def test_pullback_length_identity(k4, j5):
    for g in (k4, j5):
        c = find_petersen_colouring(g)
        fibers = c.fiber_sizes()
        for cover_p in _optimal_p_covers()[:5]:
            w = cover_p.edge_weight(15)
            pulled = pullback_cover(g, c, cover_p)
            assert pulled.length == sum(w[e] * fibers[e] for e in range(15))
            assert validate(pulled, g).ok


def test_best_pullback_star_map(k4):
    c = star_colouring(k4)
    res = best_pullback_cover(k4, c)
    assert res.length == 8  # the optimal P-cover leaves one star edge weight 2
    assert res.claimed_bound == -(-7 * 6 // 5) - 1
    assert res.length >= shortest_cycle_cover(k4).length


def test_best_pullback_petersen_identity(pete):
    res = best_pullback_cover(pete, PetersenColouring(tuple(range(15))))
    assert res.claimed_bound == 21  # balanced: 7m/5 exactly
    assert res.length == 21


def test_best_pullback_flower(j5):
    c = find_petersen_colouring(j5)
    res = best_pullback_cover(j5, c)
    bound = 42 if is_balanced(c, 30) else 41
    assert res.claimed_bound == bound
    assert res.length <= bound
    assert res.length >= 40


def test_colouring_file_roundtrip(j5):
    c = find_petersen_colouring(j5)
    text = format_colouring(j5, c)
    assert parse_colouring(j5, text) == c

"""Every cover read off an edge labelling, against the earlier route through
the checked ``decompose_even_subgraph`` (``substrate``), byte for byte: the
pullback ``solvers._colouring_cover`` walks each class's preimage unchecked,
since a labelling that sends every vertex star onto a star of its target
makes the preimage 2-regular."""

import pytest

from conftest import load_bridgeless_corpus, load_snarks18
from substrate import pullback_by_decomposition, split_cover_by_decomposition
from cyclecover import constructions, flower, petersen, solvers
from cyclecover.constructions import (
    cover_from_cdc,
    cover_via_circumference,
    cover_via_oddness2,
    five_cdc_from_pm_cover,
    scc_cover_from_tau4,
)
from cyclecover.errors import TauTooLarge
from cyclecover.pcolour import _optimal_p_covers, find_petersen_colouring, pullback_cover
from cyclecover.solvers import edge_colouring_3, shortest_cycle_cover


def test_scc_colour_covers_match_the_decomposing_route():
    from test_solvers import _random_cubic_24_to_40

    coloured = 0
    for g in (*load_bridgeless_corpus(12), *_random_cubic_24_to_40()):
        res = shortest_cycle_cover(g)
        if res.stage == "colouring":
            colours = solvers._colouring(g)
            assert res.cover == pullback_by_decomposition(g, colours, ((0, 2), (1, 2)))
            coloured += 1
    assert coloured > 60


def _certificates(g, snark):
    """The tau-4 result (None above 4), the circumference result and, on a
    snark, the oddness-2 result."""
    try:
        tau4 = scc_cover_from_tau4(g)
    except TauTooLarge:
        tau4 = None
    found = [tau4, cover_via_circumference(g)]
    return found + [cover_via_oddness2(g)] if snark else found


def test_certificates_match_the_decomposing_route(k4, prism, pete, j5):
    # each result again with the earlier pullback and split; at tau 4 the
    # cover is also the 5-CDC less its 2-factor class, as cover_from_cdc
    # drops it
    colourable = [g for g in (k4, prism, *load_bridgeless_corpus(12)) if edge_colouring_3(g)]
    snarks = [pete, j5, flower(7), *load_snarks18()]
    branches = set()
    for g in colourable + snarks:
        found = _certificates(g, g in snarks)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(constructions, "_colouring_cover", pullback_by_decomposition)
            mp.setattr(constructions, "_split_cover", split_cover_by_decomposition)
            assert _certificates(g, g in snarks) == found
        tau4, circ = found[:2]
        if tau4 is not None and tau4.certificate["tau"] == 4:
            kcdc = five_cdc_from_pm_cover(g, tau4.certificate["matchings"])
            assert tau4.cover == cover_from_cdc(g, kcdc, kcdc.classes[4])
        branches.update({("tau", tau4 and tau4.certificate["tau"]),
                         ("k = 0", circ.certificate["k"] == 0)})
    assert branches == {("tau", None), ("tau", 3), ("tau", 4), ("k = 0", True),
                        ("k = 0", False)}


def test_petersen_pullbacks_match_the_decomposing_route(k4, j5):
    covers_p = _optimal_p_covers()
    assert len(covers_p) == 20
    for g in (k4, j5, flower(7), *load_snarks18()):
        colouring = find_petersen_colouring(g)
        for cover_p in covers_p:
            want = pullback_by_decomposition(g, colouring.assignment,
                                             [c.edge_set for c in cover_p.circuits])
            assert pullback_cover(g, colouring, cover_p) == want

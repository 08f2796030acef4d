import os
import random

import pytest

from cyclecover import build_graph, flower, petersen
from cyclecover.covers import validate
from cyclecover.families import parse_graph6
from cyclecover.graphs import CubicGraph, is_bridgeless

DATA = os.path.join(os.path.dirname(__file__), "data")


@pytest.fixture(scope="session")
def k4():
    return build_graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


@pytest.fixture(scope="session")
def prism():
    return build_graph([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                        (0, 3), (1, 4), (2, 5)])


@pytest.fixture(scope="session")
def k33():
    return build_graph([(0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5),
                        (2, 3), (2, 4), (2, 5)])


@pytest.fixture(scope="session")
def pete():
    return petersen()


@pytest.fixture(scope="session")
def j5():
    return flower(5)


def load_corpus(max_n):
    """Cubic graphs (one per isomorphism class) from the committed corpus."""
    out = []
    with open(os.path.join(DATA, "cubic_le12.g6")) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            g = parse_graph6(line)
            if g.n <= max_n:
                out.append(g)
    return out


def load_bridgeless_corpus(max_n):
    return [g for g in load_corpus(max_n) if is_bridgeless(g)]


def relabelled(g, seed):
    """g with its vertices renumbered at random and its edges sorted, the
    order a graph6 reader gives."""
    rng = random.Random(seed)
    new = list(range(g.n))
    rng.shuffle(new)
    return CubicGraph(g.n, sorted(tuple(sorted((new[u], new[v]))) for u, v in g.edges))


def load_snarks18():
    with open(os.path.join(DATA, "snarks18.g6")) as fh:
        return [parse_graph6(line.strip()) for line in fh if line.strip()]


def check_kcdc(g, kcdc, k, two_factor_class=False):
    """A k-class CDC witness: its classes double cover g, and with
    ``two_factor_class`` the last one spans every vertex with degree 2."""
    assert kcdc.k == k
    assert validate(kcdc.as_cover(g), g).is_cdc
    if two_factor_class:
        deg = [0] * g.n
        for e in kcdc.classes[-1]:
            for v in g.edges[e]:
                deg[v] += 1
        assert deg == [2] * g.n

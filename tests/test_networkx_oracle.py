"""Closure and cover edges checked against networkx, a test-only oracle."""
import random

import pytest

from eventposet import build_poset

nx = pytest.importorskip("networkx")


def _random_dag(seed: int) -> tuple[int, list[tuple[int, int]]]:
    # Relations follow a shuffled order of the ids, so they run both ways
    # between low and high ids; redundant relations are kept.
    rng = random.Random(seed)
    n = rng.randint(1, 80)
    density = rng.choice((0.02, 0.08, 0.3))
    ids = list(range(n))
    rng.shuffle(ids)
    relations = [
        (ids[a], ids[b]) for a in range(n) for b in range(a + 1, n) if rng.random() < density
    ]
    return n, relations


@pytest.mark.parametrize("seed", range(12))
def test_closure_and_reduction_match_networkx(seed):
    n, relations = _random_dag(seed)
    poset = build_poset(n, relations)
    graph = nx.DiGraph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(relations)
    closure = nx.transitive_closure_dag(graph)
    for x in range(n):
        expected = 1 << x
        for y in closure.successors(x):
            expected |= 1 << y
        assert poset.above_bits(x) == expected
    assert poset.cover_edges() == tuple(sorted(nx.transitive_reduction(graph).edges()))

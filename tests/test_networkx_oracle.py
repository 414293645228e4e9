"""Closure and cover edges checked against networkx, a test-only oracle."""
import random

import pytest
from hypothesis import given, settings, strategies as st

from eventposet import CycleDetectedError, build_poset

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


def _graph(n: int, relations: list[tuple[int, int]]):
    graph = nx.DiGraph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(relations)
    return graph


def _assert_matches(poset, graph) -> None:
    closure = nx.transitive_closure_dag(graph)
    for x in range(graph.number_of_nodes()):
        expected = 1 << x
        for y in closure.successors(x):
            expected |= 1 << y
        assert poset.above_bits(x) == expected
    assert poset.cover_edges() == tuple(sorted(nx.transitive_reduction(graph).edges()))


@pytest.mark.parametrize("seed", range(12))
def test_closure_and_reduction_match_networkx(seed):
    n, relations = _random_dag(seed)
    _assert_matches(build_poset(n, relations), _graph(n, relations))


@pytest.mark.parametrize("seed", range(12))
def test_reverse_matches_networkx(seed):
    n, relations = _random_dag(seed)
    _assert_matches(build_poset(n, relations).reverse(), nx.reverse(_graph(n, relations)))


@pytest.mark.parametrize("seed", range(12))
def test_duplicated_relations_in_shuffled_order_match_networkx(seed):
    # Duplicates and the input order must not change which relations are
    # found to be covers.
    n, relations = _random_dag(seed)
    rng = random.Random(seed)
    shuffled = relations + rng.choices(relations, k=len(relations)) if relations else []
    rng.shuffle(shuffled)
    _assert_matches(build_poset(n, shuffled), _graph(n, relations))


def test_large_input_matches_networkx():
    rng = random.Random(1024)
    n = 1024
    ids = list(range(n))
    rng.shuffle(ids)
    relations = [
        (ids[a], ids[b]) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.004
    ]
    rng.shuffle(relations)
    _assert_matches(build_poset(n, relations), _graph(n, relations))


@st.composite
def _relation_lists(draw):
    # At most 10 events; cycles, duplicates and self-relations all occur.
    # Half the lists point every relation the same way along a random
    # order of the ids, so that acyclic inputs are common too.
    n = draw(st.integers(1, 10))
    ids = draw(st.permutations(range(n)))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=25))
    if draw(st.booleans()):
        pairs = [(min(a, b), max(a, b)) for a, b in pairs]
    return n, [(ids[a], ids[b]) for a, b in pairs]


@settings(max_examples=400)
@given(_relation_lists())
def test_relation_lists_match_networkx_or_name_a_real_cycle(case):
    n, relations = case
    try:
        poset = build_poset(n, relations)
    except CycleDetectedError as exc:
        cycle = exc.cycle
        assert cycle[0] == cycle[-1]
        assert all(step in relations for step in zip(cycle, cycle[1:]))
        assert len(set(cycle[:-1])) == len(cycle) - 1
        return
    _assert_matches(poset, _graph(n, relations))

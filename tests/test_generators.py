import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from eventposet import generators
from eventposet import (
    ChainEscapesWindowError,
    EmptyWindowError,
    InvalidArgumentError,
    LatticeChainSpec,
    LatticeSpec,
    OutOfRangeError,
    build_poset,
    chain_distance,
    chain_poset,
    check_coordinated,
    detect_linear_relation,
    forward_project,
    generate_lattice,
    generate_random,
    generate_simplex,
    maximal_chains,
    standard_lattice,
)


def test_lattice_product_order():
    lattice = generate_lattice(LatticeSpec(3, 3))
    assert lattice.poset.event_count == 9
    assert lattice.poset.leq(lattice.event(0, 0), lattice.event(2, 1))
    assert not lattice.poset.leq(lattice.event(1, 0), lattice.event(0, 2))
    u, v = lattice.coords(lattice.event(2, 1))
    assert (u, v) == (2, 1)


def test_single_event_window():
    lattice = generate_lattice(LatticeSpec(1, 1))
    assert lattice.poset.event_count == 1


def test_empty_window_rejected():
    with pytest.raises(EmptyWindowError):
        generate_lattice(LatticeSpec(0, 3))


def test_chain_outside_window_rejected():
    spec = LatticeSpec(3, 3, (LatticeChainSpec("P", 1, 1, 5, 0),))
    with pytest.raises(ChainEscapesWindowError):
        generate_lattice(spec)


def test_chain_step_validation():
    with pytest.raises(ValueError):
        LatticeChainSpec("P", 0, 0)
    with pytest.raises(ValueError):
        LatticeChainSpec("P", -1, 1)


def test_rest_chains_coordinated(lattice8):
    assert check_coordinated(lattice8.chains["P"], lattice8.chains["Q"])


def test_adjacent_rest_chains_coordinated():
    spec = LatticeSpec(
        8,
        8,
        (
            LatticeChainSpec("A", 1, 1, 0, 0),
            LatticeChainSpec("B", 1, 1, 2, 0),
        ),
    )
    lattice = generate_lattice(spec)
    assert check_coordinated(lattice.chains["A"], lattice.chains["B"])


def test_boosted_chain_relation(lattice12):
    relation = detect_linear_relation(lattice12.chains["S"], lattice12.chains["P"])
    assert (relation.m, relation.n) == (Fraction(4), Fraction(1))


def test_chain_valuation_is_tick_index(lattice12):
    s = lattice12.chains["S"]
    assert s.values == tuple(Fraction(k) for k in range(len(s)))


def test_simplex_structure():
    poset, chains = generate_simplex(3)
    assert poset.event_count == 6
    assert sorted(chains) == ["C1", "C2", "C3"]
    for name, vc in chains.items():
        assert vc.values == (Fraction(0), Fraction(1))
    # every top includes every bottom
    for i in range(3):
        for j in range(3):
            assert poset.leq(j, 3 + i)


def test_simplex_pairwise_distance_magnitude():
    _, chains = generate_simplex(3)
    names = sorted(chains)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            d = chain_distance(chains[a], chains[b], chains[a].elements[0], chains[b].elements[0])
            assert abs(d) == 1


def test_simplex_two_chain_projection_pair():
    _, chains = generate_simplex(2)
    c1, c2 = chains["C1"], chains["C2"]
    x1, x2 = c1.elements[0], c2.elements[0]
    # ingredient pair of the distance formula: (p - Pq, Qp - q)
    delta_p = c1.value_of(x1) - c1.value_of(forward_project(x2, c1.chain))
    delta_q = c2.value_of(forward_project(x1, c2.chain)) - c2.value_of(x2)
    assert (delta_p, delta_q) == (Fraction(-1), Fraction(1))
    assert abs(chain_distance(c1, c2, x1, x2)) == 1


def test_simplex_degenerate():
    poset, chains = generate_simplex(1)
    assert poset.event_count == 2
    assert len(chains) == 1
    with pytest.raises(ValueError):
        generate_simplex(0)


def test_random_density_extremes():
    for n_events in (0, 1, 2, 12):
        antichain = generate_random(7, n_events, 0.0)
        assert antichain.event_count == n_events
        assert antichain.cover_edges() == ()
        total = generate_random(7, n_events, 1.0)
        assert len(total.cover_edges()) == max(n_events - 1, 0)
        for x in total.events():
            for y in total.events():
                assert total.leq(x, y) or total.leq(y, x)
        half = generate_random(7, n_events, 0.5)
        assert half.event_count == n_events
        assert len(half.cover_edges()) <= n_events * (n_events - 1) // 2


@pytest.mark.parametrize("call", [
    # Each used to return (a float id, or a one-chain simplex for True) or
    # raise a TypeError or AttributeError.
    pytest.param(lambda: standard_lattice(4, 4).event(1.5, 0), id="event-float"),
    pytest.param(lambda: standard_lattice(4, 4).event(True, 0), id="event-bool"),
    pytest.param(lambda: standard_lattice(4, 4).event(0, 4), id="event-outside"),
    pytest.param(lambda: generate_random(0, 2.5, 0.5), id="random-float-count"),
    pytest.param(lambda: generate_random(0, True, 0.5), id="random-bool-count"),
    pytest.param(lambda: generate_lattice(LatticeSpec(2.5, 3)), id="lattice-float-size"),
    pytest.param(lambda: generate_lattice(LatticeSpec(-1, 3)), id="lattice-negative-size"),
    pytest.param(lambda: generate_lattice(LatticeSpec(3, 3, (
        LatticeChainSpec("P", 1, 1, 0.5, 0),))), id="lattice-float-chain-start"),
    pytest.param(lambda: generate_simplex(2.5), id="simplex-float"),
    pytest.param(lambda: generate_simplex(True), id="simplex-bool"),
    pytest.param(lambda: generate_simplex("3"), id="simplex-str"),
    # Each used to raise a TypeError or ValueError, or return [] for count -1.
    pytest.param(lambda: generate_random(0, 10, "x"), id="random-str-density"),
    pytest.param(lambda: generate_random(0, 10, None), id="random-none-density"),
    pytest.param(lambda: maximal_chains(chain_poset(3), 0, "x"), id="walks-str-count"),
    pytest.param(lambda: maximal_chains(chain_poset(3), 0, -1), id="walks-negative-count"),
    pytest.param(lambda: build_poset(3, [(0, 1, 2)]), id="build-triple-relation"),
    pytest.param(lambda: build_poset(3, [0]), id="build-int-relation"),
    pytest.param(lambda: build_poset(3, None), id="build-none-relations"),
    # A float step used to build a chain of float ids, refused as an id
    # the caller never gave.
    pytest.param(lambda: LatticeChainSpec("P", 0.5, 1), id="chain-float-step"),
    pytest.param(lambda: LatticeChainSpec("P", "a", 1), id="chain-str-step"),
    # Each used to raise a TypeError, or accept a chain named None.
    pytest.param(lambda: generate_random([1], 3, 0.5), id="random-list-seed"),
    pytest.param(lambda: generate_random(1j, 3, 0.5), id="random-complex-seed"),
    pytest.param(lambda: maximal_chains(chain_poset(3), [1], 1), id="walks-list-seed"),
    pytest.param(lambda: generate_lattice(LatticeSpec(3, 3, None)), id="lattice-none-chains"),
    pytest.param(lambda: generate_lattice(LatticeSpec(3, 3, (("P", 1, 1),))),
                 id="lattice-tuple-chain"),
    pytest.param(lambda: generate_lattice(LatticeSpec(3, 3, "P")), id="lattice-str-chains"),
    pytest.param(lambda: LatticeChainSpec(None, 1, 1), id="chain-none-name"),
    pytest.param(lambda: LatticeChainSpec(1, 1, 1), id="chain-int-name"),
    # Used to keep only the last of the two chains named P.
    pytest.param(lambda: LatticeSpec(3, 3, (
        LatticeChainSpec("P", 1, 1), LatticeChainSpec("P", 1, 0))), id="lattice-duplicate-chain-name"),
])
def test_generator_arguments_follow_the_int_rule(call):
    with pytest.raises(InvalidArgumentError):
        call()


@pytest.mark.parametrize("seed", [7, "seven", 7.5, None])
def test_every_seed_type_random_takes_still_works(seed):
    poset = generate_random(seed, 12, 0.3)
    assert poset.event_count == 12
    if seed is not None:
        assert poset.cover_edges() == generate_random(seed, 12, 0.3).cover_edges()
        assert maximal_chains(poset, seed, 2) == maximal_chains(poset, seed, 2)
    assert len(maximal_chains(poset, seed, 2)) == 2


def test_lattice_spec_chains_become_a_tuple():
    spec = LatticeSpec(3, 3, [LatticeChainSpec("P", 1, 1)])
    assert spec.chains == (LatticeChainSpec("P", 1, 1),)
    assert spec == LatticeSpec(3, 3, (LatticeChainSpec("P", 1, 1),))
    assert hash(spec) == hash(LatticeSpec(3, 3, iter(spec.chains)))
    assert generate_lattice(spec).chains["P"].elements == (0, 4, 8)

def test_random_deterministic():
    a = generate_random(3, 25, 0.3)
    b = generate_random(3, 25, 0.3)
    assert a.cover_edges() == b.cover_edges()
    c = generate_random(4, 25, 0.3)
    assert c.cover_edges() != a.cover_edges()


def test_random_density_validation():
    with pytest.raises(ValueError):
        generate_random(0, 5, 1.5)


def test_maximal_chains_are_maximal():
    poset = generate_random(11, 30, 0.2)
    succ = {a for a, _ in poset.cover_edges()}
    pred = {b for _, b in poset.cover_edges()}
    for walk in maximal_chains(poset, 0, 5):
        assert walk[0] not in pred
        assert walk[-1] not in succ
        for a, b in zip(walk, walk[1:]):
            assert poset.leq(a, b) and a != b
    # A poset without events has no minimal event to start a walk from.
    assert maximal_chains(build_poset(0, []), 0, 3) == []


# Walks pinned for fixed seeds: each event's successors are listed in cover
# order, so a seed gives the same sequence of draws and the same walks.
_RANDOM_WALKS = {
    0: [(13, 12, 0, 29), (19, 10, 3, 5, 6, 29), (19, 0, 24, 17, 27), (9, 22, 10, 3, 5, 6, 16, 25, 27)],
    1: [(9, 1), (13, 12, 22, 8, 26, 18, 16, 14), (13, 12, 22, 8, 26, 18, 16, 14), (19, 0, 29)],
    7: [(13, 12, 22, 10, 3, 5, 6, 29), (19, 0, 24, 17, 27), (13, 12, 0, 24, 17, 27), (9, 1)],
}
_LATTICE_WALKS = {
    0: [
        (0, 12, 13, 25, 37, 49, 61, 73, 85, 86, 87, 99, 100, 101, 113, 114, 126, 127, 128, 140, 141, 142, 143),
        (0, 12, 13, 25, 37, 49, 50, 51, 52, 64, 65, 77, 89, 90, 102, 103, 104, 105, 106, 107, 119, 131, 143),
        (0, 12, 13, 25, 37, 38, 50, 51, 63, 75, 76, 88, 100, 101, 113, 114, 115, 116, 117, 129, 141, 142, 143),
    ],
    5: [
        (0, 12, 13, 25, 26, 27, 28, 29, 41, 53, 54, 66, 67, 68, 69, 70, 82, 94, 95, 107, 119, 131, 143),
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 20, 32, 33, 34, 35, 47, 59, 71, 83, 95, 107, 119, 131, 143),
        (0, 12, 24, 25, 37, 38, 50, 62, 74, 86, 98, 99, 111, 123, 124, 125, 137, 138, 139, 140, 141, 142, 143),
    ],
}


@pytest.mark.parametrize("seed", sorted(_RANDOM_WALKS))
def test_maximal_chains_walks_are_pinned_on_a_random_dag(seed):
    poset = generate_random(11, 30, 0.2)
    assert maximal_chains(poset, seed, 4) == _RANDOM_WALKS[seed]


@pytest.mark.parametrize("seed", sorted(_LATTICE_WALKS))
def test_maximal_chains_walks_are_pinned_on_a_lattice(seed, lattice12):
    assert maximal_chains(lattice12.poset, seed, 3) == _LATTICE_WALKS[seed]


def test_distance_needs_mutual_projection():
    _, chains = generate_simplex(2)
    c1, c2 = chains["C1"], chains["C2"]
    with pytest.raises(OutOfRangeError):
        chain_distance(c1, c2, c1.elements[1], c2.elements[0])


# The random DAG generator walks the pairs i < j of a seeded permutation
# by geometric skips. These tests watch what it hands to build_poset and
# how often it draws.


class _RecordingRandom(random.Random):
    """Counts ``random()`` draws and keeps the permutation ``shuffle`` made."""

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = 0
        self.order = None

    def random(self):
        self.draws += 1
        return super().random()

    def getrandbits(self, k):
        # Defined so that shuffle keeps drawing through getrandbits, as in
        # random.Random; a subclass that overrides random() alone shuffles
        # through random().
        return super().getrandbits(k)

    def shuffle(self, x):
        super().shuffle(x)
        self.order = list(x)


@pytest.fixture
def recorded(monkeypatch):
    """Call ``generate_random`` and return its rng and the relations it drew."""
    rngs, handed = [], []

    def make_rng(seed):
        rngs.append(_RecordingRandom(seed))
        return rngs[-1]

    def capture(n_events, relations):
        handed.append(list(relations))
        return n_events

    monkeypatch.setattr(generators.random, "Random", make_rng)
    monkeypatch.setattr(generators, "build_poset", capture)

    def draw(seed, n_events, density):
        generate_random(seed, n_events, density)
        return rngs[-1], handed[-1]

    return draw


@pytest.mark.parametrize("density", [5e-324, 1 - 1e-16])
def test_random_extreme_densities_return(density):
    poset = generate_random(9, 40, density)
    assert poset.event_count == 40


def test_random_relations_are_distinct_and_respect_the_permutation(recorded):
    for seed in range(20):
        rng, relations = recorded(seed, 60, 0.3)
        assert len(set(relations)) == len(relations)
        position = {event: k for k, event in enumerate(rng.order)}
        assert all(position[a] < position[b] for a, b in relations)


def test_random_draws_no_pair_at_density_zero(recorded):
    rng, relations = recorded(3, 200, 0.0)
    assert relations == [] and rng.draws == 0


def test_random_draws_every_pair_near_density_one(recorded):
    rng, relations = recorded(3, 30, 1 - 1e-16)
    position = {event: k for k, event in enumerate(rng.order)}
    assert sorted((position[a], position[b]) for a, b in relations) == [
        (i, j) for i in range(30) for j in range(i + 1, 30)
    ]


def test_random_pair_frequencies(recorded):
    n_events, density, seeds = 6, 0.3, 4000
    counts = Counter()
    for seed in range(seeds):
        rng, relations = recorded(seed, n_events, density)
        position = {event: k for k, event in enumerate(rng.order)}
        counts.update((position[a], position[b]) for a, b in relations)
    sigma = math.sqrt(density * (1 - density) / seeds)
    pairs = [(i, j) for i in range(n_events) for j in range(i + 1, n_events)]
    assert set(counts) == set(pairs)
    for pair in pairs:
        assert abs(counts[pair] / seeds - density) < 5 * sigma, pair


def test_random_mean_relation_count(recorded):
    n_events, density, seeds = 1536, 0.005, 20
    total = [len(recorded(seed, n_events, density)[1]) for seed in range(seeds)]
    pairs = n_events * (n_events - 1) // 2
    sigma = math.sqrt(pairs * density * (1 - density) / seeds)
    assert abs(sum(total) / seeds - density * pairs) < 5 * sigma


def test_random_draws_once_per_relation(recorded):
    # A per-pair loop would draw N(N-1)/2 = 523776 times here.
    rng, relations = recorded(1, 1024, 0.01)
    assert rng.draws <= len(relations) + 1


@pytest.mark.parametrize("u_max, v_max, error, message", [
    (0, 3, EmptyWindowError, "window 0x3 has no events"),
    (3, 0, EmptyWindowError, "window 3x0 has no events"),
    (-1, 2, InvalidArgumentError, "window sizes -1x2 are not ints >= 0"),
    (2.0, 3, InvalidArgumentError, "window sizes 2.0x3 are not ints >= 0"),
    (True, 3, InvalidArgumentError, "window sizes Truex3 are not ints >= 0"),
    ("a", 3, InvalidArgumentError, "window sizes 'a'x3 are not ints >= 0"),
    (None, 3, InvalidArgumentError, "window sizes Nonex3 are not ints >= 0"),
    (3, "a", InvalidArgumentError, "window sizes 3x'a' are not ints >= 0"),
    (64, 65, InvalidArgumentError, "event_count 4160 is not an int in 0..4096"),
])
def test_a_spec_checks_its_window_when_built(u_max, v_max, error, message):
    with pytest.raises(error) as built:
        LatticeSpec(u_max, v_max)
    assert str(built.value) == message
    with pytest.raises(error) as standard:
        standard_lattice(u_max, v_max)
    assert str(standard.value) == message

import copy
import pickle
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from eventposet import (
    Chain,
    InvalidIdError,
    NotQuantifiableError,
    ValuedChain,
    ProjectionCase,
    backward_project,
    build_poset,
    chain_poset,
    classify_projection,
    forward_project,
    generate_random,
    make_valued_chain,
    maximal_chains,
    quantify_event,
    standard_lattice,
)
from eventposet.projection import _project_both_ways
from oracles import bad_ids, brute_backward, brute_forward, lattice_backward, lattice_forward


def test_element_on_chain_projects_to_itself(lattice12):
    p = lattice12.chains["P"]
    for event in p.elements:
        assert forward_project(event, p.chain) == event
        assert backward_project(event, p.chain) == event
        value = p.value_of(event)
        assert quantify_event(event, p) == (value, value)


def test_lattice_event_projections(lattice12):
    p = lattice12.chains["P"]
    x = lattice12.event(3, 1)
    assert forward_project(x, p.chain) == lattice12.event(3, 3)
    assert backward_project(x, p.chain) == lattice12.event(1, 1)
    assert quantify_event(x, p) == (Fraction(3), Fraction(1))


def test_event_above_chain_has_no_forward():
    poset = chain_poset(4)
    chain = Chain(poset, (0, 1, 2), "P")
    outcome = classify_projection(3, chain)
    assert outcome.case is ProjectionCase.B_BACKWARD_ONLY
    assert outcome.forward is None
    assert outcome.backward == 2


def test_event_below_chain_has_no_backward():
    poset = chain_poset(4)
    chain = Chain(poset, (1, 2, 3), "P")
    outcome = classify_projection(0, chain)
    assert outcome.case is ProjectionCase.C_FORWARD_ONLY
    assert outcome.forward == 1
    assert outcome.backward is None


def test_unrelated_event_is_incomparable():
    poset = build_poset(3, [(0, 1)])
    chain = Chain(poset, (0, 1), "P")
    outcome = classify_projection(2, chain)
    assert outcome.case is ProjectionCase.A_INCOMPARABLE
    assert outcome.forward is None and outcome.backward is None


def test_forward_only_event_not_quantifiable():
    # An event below the chain window: forward value defined, no backward.
    poset = build_poset(4, [(0, 1), (1, 2), (3, 2)])
    vc = make_valued_chain(poset, (0, 1, 2), (0, 1, 2), "P")
    outcome = classify_projection(3, vc.chain)
    assert outcome.case is ProjectionCase.C_FORWARD_ONLY
    assert vc.value_of(outcome.forward) == 2
    with pytest.raises(NotQuantifiableError):
        quantify_event(3, vc)


@pytest.mark.parametrize("event, case", [
    (0, "forward-only"), (143, "backward-only"), (11, "incomparable"),
])
def test_unquantifiable_event_names_its_case(lattice12, event, case):
    # 0 = (0, 0) lies below Q's start, 143 = (11, 11) above its end and
    # 11 = (0, 11) beside it.
    message = f"event {event} is {case} with respect to chain 'Q'"
    with pytest.raises(NotQuantifiableError) as exc:
        quantify_event(event, lattice12.chains["Q"])
    assert str(exc.value) == message


def test_case_d_sandwich(lattice12):
    poset = lattice12.poset
    for vc in lattice12.chains.values():
        for x in poset.events():
            outcome = classify_projection(x, vc.chain)
            if outcome.case is ProjectionCase.D_BOTH:
                assert poset.leq(outcome.backward, x)
                assert poset.leq(x, outcome.forward)
                assert poset.leq(outcome.backward, outcome.forward)


def test_projection_monotone(lattice8):
    poset = lattice8.poset
    for vc in lattice8.chains.values():
        chain = vc.chain
        for x in poset.events():
            for y in poset.events():
                if not poset.leq(x, y):
                    continue
                fx, fy = forward_project(x, chain), forward_project(y, chain)
                if fx is not None and fy is not None:
                    assert poset.leq(fx, fy)
                bx, by = backward_project(x, chain), backward_project(y, chain)
                if bx is not None and by is not None:
                    assert poset.leq(bx, by)


def test_matches_brute_force_on_lattice(lattice8):
    for vc in lattice8.chains.values():
        chain = vc.chain
        for x in lattice8.poset.events():
            assert forward_project(x, chain) == brute_forward(
                lattice8.poset, x, chain.elements
            )
            assert backward_project(x, chain) == brute_backward(
                lattice8.poset, x, chain.elements
            )


def test_backward_is_forward_on_reversed_poset(lattice8):
    # The dual projection equals the direct projection once the order and
    # the chain are both reversed.
    rev = lattice8.poset.reverse()
    for vc in lattice8.chains.values():
        reversed_chain = Chain(rev, vc.elements[::-1], vc.name)
        for x in lattice8.poset.events():
            assert backward_project(x, vc.chain) == forward_project(x, reversed_chain)
            assert forward_project(x, vc.chain) == backward_project(x, reversed_chain)


@st.composite
def poset_with_chain(draw):
    n = draw(st.integers(2, 20))
    relations = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
            .map(lambda ab: (min(ab), max(ab)))
            .filter(lambda ab: ab[0] != ab[1]),
            max_size=50,
        )
    )
    poset = build_poset(n, relations)
    walks = maximal_chains(poset, seed=draw(st.integers(0, 5)), count=1)
    walk = walks[0]
    if len(walk) > 1:
        lo = draw(st.integers(0, len(walk) - 1))
        hi = draw(st.integers(lo, len(walk) - 1))
        walk = walk[lo : hi + 1]
    return poset, Chain(poset, walk)


@given(poset_with_chain())
def test_projection_matches_oracle_property(data):
    poset, chain = data
    for x in poset.events():
        assert forward_project(x, chain) == brute_forward(poset, x, chain.elements)
        assert backward_project(x, chain) == brute_backward(poset, x, chain.elements)


def test_matches_brute_force_on_random_posets():
    for seed in range(8):
        poset = generate_random(seed, 30, 0.15)
        for walk in maximal_chains(poset, seed, 3):
            chain = Chain(poset, walk)
            for x in poset.events():
                assert forward_project(x, chain) == brute_forward(
                    poset, x, chain.elements
                )
                assert backward_project(x, chain) == brute_backward(
                    poset, x, chain.elements
                )


@st.composite
def permuted_poset_with_chain(draw):
    # Relations respect a random order of the ids, so chain ids are not
    # ascending; the chain is a run of a walk along cover edges.
    n = draw(st.integers(1, 24))
    ids = draw(st.permutations(range(n)))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda ab: ab[0] < ab[1]
    )
    relations = [(ids[a], ids[b]) for a, b in draw(st.lists(pairs, max_size=60))]
    poset = build_poset(n, relations)
    walk = maximal_chains(poset, seed=draw(st.integers(0, 5)), count=1)[0]
    lo = draw(st.integers(0, len(walk) - 1))
    hi = draw(st.integers(lo, len(walk) - 1))
    return poset, walk[lo : hi + 1]


_ORACLE_CASE = {
    (False, False): ProjectionCase.A_INCOMPARABLE,
    (False, True): ProjectionCase.B_BACKWARD_ONLY,
    (True, False): ProjectionCase.C_FORWARD_ONLY,
    (True, True): ProjectionCase.D_BOTH,
}


@given(permuted_poset_with_chain())
def test_projection_table_matches_linear_scan(data):
    poset, walk = data
    # The dual poset carries the same chain, read in the other direction.
    for host, elements in ((poset, walk), (poset.reverse(), walk[::-1])):
        chain = Chain(host, elements)
        for x in host.events():
            forward = brute_forward(host, x, elements)
            backward = brute_backward(host, x, elements)
            assert forward_project(x, chain) == forward
            assert backward_project(x, chain) == backward
            outcome = classify_projection(x, chain)
            assert (outcome.forward, outcome.backward) == (forward, backward)
            assert outcome.case is _ORACLE_CASE[forward is not None, backward is not None]
        valued = ValuedChain(chain, range(len(elements)))
        for bad, message in bad_ids(host.event_count):
            for project in (forward_project, backward_project, classify_projection,
                            _project_both_ways):
                with pytest.raises(InvalidIdError, match=message):
                    project(bad, chain)
            with pytest.raises(InvalidIdError, match=message):
                quantify_event(bad, valued)


def test_concurrent_first_projections_agree(lattice12):
    # Threads race to build the same chain's table, half of them through
    # classify_projection; each must read either no table or a complete one.
    poset = lattice12.poset
    elements = lattice12.chains["P"].elements
    expected = [
        (brute_forward(poset, x, elements), brute_backward(poset, x, elements))
        for x in poset.events()
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            chain = Chain(poset, elements)
            barrier = threading.Barrier(6)

            def sweep(classify):
                barrier.wait(timeout=10)
                if classify:
                    outcomes = [classify_projection(x, chain) for x in poset.events()]
                    return [(o.forward, o.backward) for o in outcomes]
                return [
                    (forward_project(x, chain), backward_project(x, chain))
                    for x in poset.events()
                ]

            with ThreadPoolExecutor(6) as pool:
                futures = [pool.submit(sweep, i % 2) for i in range(6)]
                assert all(f.result(timeout=30) == expected for f in futures)
    finally:
        sys.setswitchinterval(interval)


@pytest.fixture(scope="module")
def lattice64():
    return standard_lattice(64, 64)


# Straight chains of the standard lattice: (du, dv, u0, v0).
_STEPS = {"P": (1, 1, 0, 0), "S": (4, 1, 0, 0)}


@pytest.mark.parametrize("name", sorted(_STEPS))
def test_outcomes_match_the_lattice_closed_form(lattice64, name):
    # A fresh chain, so classify_projection builds the table.
    poset = lattice64.poset
    chain = Chain(poset, lattice64.chains[name].elements, name)
    steps = (*_STEPS[name], len(chain))
    for x in poset.events():
        forward = lattice_forward(lattice64, x, *steps)
        backward = lattice_backward(lattice64, x, *steps)
        outcome = classify_projection(x, chain)
        assert (outcome.forward, outcome.backward) == (forward, backward)
        assert outcome.case is _ORACLE_CASE[forward is not None, backward is not None]
        assert (forward_project(x, chain), backward_project(x, chain)) == (forward, backward)


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c))],
                         ids=["deepcopy", "pickle"])
def test_a_chain_with_a_table_round_trips(lattice12, clone):
    chain = Chain(lattice12.poset, lattice12.chains["P"].elements, "P")
    classify_projection(0, chain)
    cloned = clone(chain)
    assert (cloned.elements, cloned.name) == (chain.elements, chain.name)
    assert cloned._projections == chain._projections
    for x in lattice12.poset.events():
        assert classify_projection(x, cloned) == classify_projection(x, chain)


def test_outcomes_are_frozen(lattice12):
    outcome = classify_projection(0, lattice12.chains["P"].chain)
    with pytest.raises(AttributeError):
        outcome.forward = 1
    assert not hasattr(outcome, "__dict__")


def test_outcomes_unpack_as_forward_and_backward(lattice12):
    chain = lattice12.chains["Q"].chain
    for x in lattice12.poset.events():
        outcome = classify_projection(x, chain)
        forward, backward = outcome
        assert (forward, backward) == (forward_project(x, chain), backward_project(x, chain))
        assert outcome == (forward, backward)
        assert outcome.case is _ORACLE_CASE[forward is not None, backward is not None]


def _python_calls(fn, *args) -> int:
    """The Python-level calls that ``fn(*args)`` makes, its own included:
    the profiler's ``"call"`` events, which builtins do not raise."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        fn(*args)
    finally:
        sys.setprofile(previous)
    return calls


def test_one_query_on_a_built_table_makes_few_python_calls(lattice12):
    # A deterministic cost next to the wall-clock medians: a query is its own
    # frame, the one row read and the one int rule; leq tests two ids.
    chain = lattice12.chains["P"].chain
    poset = lattice12.poset
    x = lattice12.event(3, 1)
    classify_projection(x, chain)
    counts = {
        fn.__name__: _python_calls(fn, *args)
        for fn, args in (
            (classify_projection, (x, chain)),
            (forward_project, (x, chain)),
            (backward_project, (x, chain)),
            (_project_both_ways, (x, chain)),
            (poset.leq, (x, 100)),
            (poset.above_bits, (x,)),
        )
    }
    assert counts == {
        "classify_projection": 3,
        "forward_project": 3,
        "backward_project": 3,
        "_project_both_ways": 3,
        "leq": 3,
        "above_bits": 2,
    }

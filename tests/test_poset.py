from enum import IntEnum

import pytest
from hypothesis import given, strategies as st

from eventposet import (
    CycleDetectedError,
    InvalidArgumentError,
    InvalidIdError,
    build_poset,
    chain_poset,
)


class _Event(IntEnum):
    FIRST = 0
    SECOND = 1


def test_minimal_chain():
    poset = build_poset(2, [(0, 1)])
    assert poset.leq(0, 1)
    assert not poset.leq(1, 0)
    assert poset.cover_edges() == ((0, 1),)


def test_transitivity_closure():
    poset = build_poset(3, [(0, 1), (1, 2)])
    assert poset.leq(0, 2)
    assert poset.cover_edges() == ((0, 1), (1, 2))


def test_cycle_detected():
    with pytest.raises(CycleDetectedError) as exc:
        build_poset(2, [(0, 1), (1, 0)])
    witness = exc.value.cycle
    assert witness[0] == witness[-1]
    assert set(witness) == {0, 1}


def test_self_relation_is_a_cycle():
    with pytest.raises(CycleDetectedError):
        build_poset(3, [(1, 1)])


def test_invalid_ids():
    with pytest.raises(InvalidIdError):
        build_poset(2, [(0, 2)])
    poset = build_poset(2, [(0, 1)])
    with pytest.raises(InvalidIdError):
        poset.leq(0, 5)
    with pytest.raises(InvalidIdError):
        poset.leq(-1, 0)


def test_reflexive():
    poset = build_poset(3, [(0, 1)])
    for x in poset.events():
        assert poset.leq(x, x)


def test_incomparable_pair():
    poset = build_poset(3, [(0, 1)])
    assert not poset.leq(1, 2)
    assert not poset.leq(2, 1)


def test_redundant_relations_accepted():
    direct = build_poset(3, [(0, 1), (1, 2)])
    redundant = build_poset(3, [(0, 1), (1, 2), (0, 2), (0, 2)])
    assert redundant.cover_edges() == direct.cover_edges()
    assert all(
        redundant.above_bits(x) == direct.above_bits(x) for x in direct.events()
    )


def test_event_cap():
    with pytest.raises(ValueError):
        build_poset(4097, [])
    with pytest.raises(ValueError):
        build_poset(-1, [])


@pytest.mark.parametrize("count", [True, False, 2.5, -1, 4097, "3", None], ids=repr)
def test_event_counts_are_plain_ints_within_the_cap(count):
    # A bool used to build Poset(events=True); a float or str raised TypeError.
    with pytest.raises(InvalidArgumentError, match=r"is not an int in 0\.\.4096"):
        build_poset(count, [])


@pytest.mark.parametrize("bad", [True, False, 1.0, _Event.SECOND, "1", None, -1, 3], ids=repr)
def test_event_ids_are_plain_ints_within_the_poset(bad):
    # An IntEnum member used to pass as the id it equals.
    poset = build_poset(3, [(0, 1)])
    with pytest.raises(InvalidIdError, match=f"event id {bad!r} not in 0..2"):
        poset.check_id(bad)
    for relation in ((bad, 2), (2, bad)):
        with pytest.raises(InvalidIdError, match=f"event id {bad!r} not in 0..2"):
            build_poset(3, [(0, 1), relation])
    # The order query refuses the id before it reads a row.
    for args in ((bad, 0), (0, bad)):
        with pytest.raises(InvalidIdError, match=f"event id {bad!r} not in 0..2"):
            poset.leq(*args)
    with pytest.raises(InvalidIdError, match=f"event id {bad!r} not in 0..2"):
        poset.above_bits(bad)


def test_reverse_flips_order():
    poset = build_poset(3, [(0, 1), (1, 2)])
    rev = poset.reverse()
    assert rev.leq(2, 0)
    assert not rev.leq(0, 2)
    double = rev.reverse()
    assert all(double.above_bits(x) == poset.above_bits(x) for x in poset.events())


def test_empty_poset():
    poset = build_poset(0, [])
    assert poset.event_count == 0


relation_lists = st.integers(2, 24).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(
                lambda ab: (min(ab), max(ab))
            ).filter(lambda ab: ab[0] != ab[1]),
            max_size=60,
        ),
    )
)


@given(relation_lists)
def test_order_axioms_hold(data):
    n, relations = data
    poset = build_poset(n, relations)
    for x in poset.events():
        for y in poset.events():
            if poset.leq(x, y) and poset.leq(y, x):
                assert x == y
            for z in poset.events():
                if poset.leq(x, y) and poset.leq(y, z):
                    assert poset.leq(x, z)


@given(relation_lists)
def test_reduction_rebuild_preserves_closure(data):
    n, relations = data
    poset = build_poset(n, relations)
    rebuilt = build_poset(n, poset.cover_edges())
    for x in poset.events():
        assert rebuilt.above_bits(x) == poset.above_bits(x)


@pytest.mark.parametrize("descending", [False, True])
def test_total_order_of_the_cap_listed_in_reverse(descending):
    # The forward chain makes the depth-first pass 4096 events deep; the
    # descending one makes every event a root that reaches the ones before.
    n = 4096
    if descending:
        relations = [(i + 1, i) for i in range(n - 1)]
    else:
        relations = [(i, i + 1) for i in reversed(range(n - 1))]
    poset = build_poset(n, relations)
    bottom, top = (n - 1, 0) if descending else (0, n - 1)
    assert poset.above_bits(bottom) == (1 << n) - 1
    assert poset.above_bits(top) == 1 << top
    assert poset.cover_edges() == tuple(sorted(relations))


def test_chain_poset_checks_its_length_before_building(monkeypatch):
    from eventposet import poset as poset_module

    monkeypatch.setattr(poset_module, "build_poset", lambda *args: pytest.fail("built relations"))
    for length in ("a", 4097):
        with pytest.raises(InvalidArgumentError):
            chain_poset(length)


@pytest.mark.parametrize(
    "relations, error",
    [
        ([(0, 0), (0, 9)], CycleDetectedError),
        ([(0, 9), (1, 1)], InvalidIdError),
        ([(9, 9)], InvalidIdError),
        ([(True, True)], InvalidIdError),
        ([(0, 1), (-1, -1)], InvalidIdError),
    ],
)
def test_the_first_bad_relation_decides_the_error(relations, error):
    # A self-loop is a cycle only between valid ids.
    with pytest.raises(error):
        build_poset(3, relations)


class _Unequal:
    """An endpoint that cannot be compared."""

    def __eq__(self, other):
        raise TypeError("not comparable")

    def __repr__(self):
        return "_Unequal()"


def test_an_endpoint_is_tested_as_an_id_before_it_is_compared():
    # Comparing first would raise TypeError, refused as InvalidArgumentError.
    endpoint = _Unequal()
    for relation in ((endpoint, endpoint), (endpoint, 0), (0, endpoint)):
        with pytest.raises(InvalidIdError, match=r"event id _Unequal\(\) not in 0\.\.2"):
            build_poset(3, [relation])


def test_a_valid_build_tests_the_int_rule_for_the_event_count_only(monkeypatch, lattice12):
    from eventposet import poset as poset_module

    calls = []
    is_index = poset_module._is_index

    def counted(x, bound):
        calls.append((x, bound))
        return is_index(x, bound)

    monkeypatch.setattr(poset_module, "_is_index", counted)
    covers = lattice12.poset.cover_edges()
    poset = build_poset(144, covers)
    assert calls == [(144, poset_module.MAX_EVENTS + 1)]
    assert poset.cover_edges() == covers

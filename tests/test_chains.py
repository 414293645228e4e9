from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from eventposet import (
    Chain,
    ClosedInterval,
    DifferentChainsError,
    NotAChainError,
    NotAdjacentError,
    NotIsotonicError,
    OutOfRangeError,
    ValuedChain,
    build_poset,
    chain_poset,
    forward_project,
    interval_length,
    join_closed_intervals,
    make_valued_chain,
)


def test_valid_chain():
    vc = make_valued_chain(chain_poset(3), (0, 1, 2), (0, 1, 2), "P")
    assert vc.values == (Fraction(0), Fraction(1), Fraction(2))
    assert vc.name == "P"


def test_coarse_graining_allowed():
    vc = make_valued_chain(chain_poset(3), (0, 1, 2), (0, 0, 1))
    assert vc.values[0] == vc.values[1]


def test_not_isotonic():
    with pytest.raises(NotIsotonicError):
        make_valued_chain(chain_poset(2), (0, 1), (1, 0))


def test_values_must_match_elements():
    with pytest.raises(NotIsotonicError, match="^2 values for 3 chain elements$"):
        make_valued_chain(chain_poset(3), (0, 1, 2), (0, 1))


def test_not_a_chain_incomparable():
    poset = build_poset(3, [(0, 1)])
    with pytest.raises(NotAChainError):
        make_valued_chain(poset, (1, 2), (0, 1))


def test_not_a_chain_out_of_order():
    with pytest.raises(NotAChainError):
        make_valued_chain(chain_poset(3), (2, 0), (0, 1))


def test_not_a_chain_empty():
    with pytest.raises(NotAChainError):
        make_valued_chain(chain_poset(3), (), ())


def test_fraction_strings_accepted():
    vc = make_valued_chain(chain_poset(2), (0, 1), ("1/2", "3/2"))
    assert vc.values == (Fraction(1, 2), Fraction(3, 2))


def test_degenerate_interval_length():
    vc = make_valued_chain(chain_poset(3), (0, 1, 2), (0, 1, 2))
    assert interval_length(ClosedInterval(vc, 1, 1)) == 0


def test_interval_length_endpoint_difference():
    vc = make_valued_chain(chain_poset(5), range(5), (1, 2, 3, 4, 5))
    assert interval_length(ClosedInterval(vc, 0, 4)) == 4


def test_interval_by_value_lookup():
    vc = make_valued_chain(chain_poset(6), range(6), (1, 2, 3, 4, 5, 6))
    lo = vc.values.index(Fraction(2))
    hi = vc.values.index(Fraction(5))
    assert interval_length(ClosedInterval(vc, lo, hi)) == 3


def test_interval_index_validation():
    vc = make_valued_chain(chain_poset(3), (0, 1, 2), (0, 1, 2))
    with pytest.raises(OutOfRangeError):
        ClosedInterval(vc, 2, 1)
    with pytest.raises(OutOfRangeError):
        ClosedInterval(vc, 0, 3)


@pytest.mark.parametrize("lattice", ["lattice8", "lattice12"])
def test_every_index_range_slices_as_before(request, lattice):
    # Valid ranges keep their meaning: a subchain is the slice lo..hi with
    # its values and name, a closed interval's length is the difference of
    # its endpoint values, and a join spans both parts.
    for vc in request.getfixturevalue(lattice).chains.values():
        n = len(vc)
        for lo in range(n):
            for hi in range(lo, n):
                sub = vc.subchain(lo, hi)
                assert sub.elements == vc.elements[lo : hi + 1]
                assert sub.values == vc.values[lo : hi + 1]
                assert sub.name == vc.name
                assert interval_length(ClosedInterval(vc, lo, hi)) == vc.values[hi] - vc.values[lo]
                joined = join_closed_intervals(ClosedInterval(vc, lo, lo), ClosedInterval(vc, lo, hi))
                assert (joined.lo_index, joined.hi_index) == (lo, hi)


def test_join_adds_lengths():
    vc = make_valued_chain(chain_poset(5), range(5), (0, 1, 1, 4, 7))
    left = ClosedInterval(vc, 0, 2)
    right = ClosedInterval(vc, 2, 4)
    joined = join_closed_intervals(left, right)
    assert (joined.lo_index, joined.hi_index) == (0, 4)
    assert interval_length(joined) == interval_length(left) + interval_length(right)


def test_join_with_degenerate_interval():
    vc = make_valued_chain(chain_poset(4), range(4), (0, 2, 3, 5))
    point = ClosedInterval(vc, 1, 1)
    rest = ClosedInterval(vc, 1, 3)
    joined = join_closed_intervals(point, rest)
    assert interval_length(joined) == interval_length(rest)


def test_join_associativity():
    vc = make_valued_chain(chain_poset(7), range(7), (0, 1, 3, 3, 6, 8, 13))
    a = ClosedInterval(vc, 0, 2)
    b = ClosedInterval(vc, 2, 4)
    c = ClosedInterval(vc, 4, 6)
    left_first = join_closed_intervals(join_closed_intervals(a, b), c)
    right_first = join_closed_intervals(a, join_closed_intervals(b, c))
    assert (left_first.lo_index, left_first.hi_index) == (
        right_first.lo_index,
        right_first.hi_index,
    )
    assert interval_length(left_first) == interval_length(right_first)


def test_join_requires_shared_endpoint():
    vc = make_valued_chain(chain_poset(5), range(5), range(5))
    with pytest.raises(NotAdjacentError):
        join_closed_intervals(ClosedInterval(vc, 0, 1), ClosedInterval(vc, 2, 4))


def test_join_requires_same_chain():
    vc1 = make_valued_chain(chain_poset(3), range(3), range(3))
    vc2 = make_valued_chain(chain_poset(3), range(3), range(3))
    with pytest.raises(DifferentChainsError):
        join_closed_intervals(ClosedInterval(vc1, 0, 1), ClosedInterval(vc2, 1, 2))


def test_value_of_requires_membership():
    vc = make_valued_chain(chain_poset(3), (0, 1), (0, 1))
    with pytest.raises(DifferentChainsError):
        vc.value_of(2)


isotonic_values = st.lists(
    st.fractions(max_denominator=20), min_size=2, max_size=10
).map(sorted)


@given(isotonic_values)
def test_length_additive_for_every_split(values):
    vc = make_valued_chain(chain_poset(len(values)), range(len(values)), values)
    n = len(values)
    for i in range(n):
        for k in range(i, n):
            whole = interval_length(ClosedInterval(vc, i, k))
            assert whole >= 0
            for j in range(i, k + 1):
                parts = interval_length(ClosedInterval(vc, i, j)) + interval_length(
                    ClosedInterval(vc, j, k)
                )
                assert parts == whole


def test_projection_table_leaves_chain_identity_alone():
    poset = build_poset(5, [(3, 0), (0, 4), (1, 4), (4, 2)])
    with_table = Chain(poset, (3, 0, 4, 2), "P")
    without_table = Chain(poset, (3, 0, 4, 2), "P")
    assert forward_project(1, with_table) == 4
    assert with_table._projections is not None
    assert without_table._projections is None
    assert with_table == without_table
    assert hash(with_table) == hash(without_table)
    assert repr(with_table) == repr(without_table)
    for event in range(poset.event_count):
        assert with_table.index_of(event) == without_table.index_of(event)
    assert with_table.index_of(4) == 2
    assert with_table.index_of(1) is None
    assert with_table.index_of([4]) is None
    for chain in (with_table, without_table):
        with pytest.raises(DifferentChainsError):
            ValuedChain(chain, (0, 1, 2, 3)).value_of(1)


def test_chain_normalizes_its_elements_before_the_empty_test():
    poset = chain_poset(3)
    with pytest.raises(NotAChainError, match="at least one element"):
        Chain(poset, iter([]))
    with pytest.raises(NotAChainError, match="at least one element"):
        Chain(poset, None)
    assert Chain(poset, iter([0, 2])).elements == (0, 2)
    vc = make_valued_chain(poset, (e for e in (0, 1)), (v for v in ("1/2", 1)))
    assert (vc.elements, vc.values) == ((0, 1), (Fraction(1, 2), Fraction(1)))
    assert vc.revalued(iter(["3/2", 2])).values == (Fraction(3, 2), Fraction(2))

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from eventposet import (
    BasisMismatchError,
    Betweenness,
    GeneralizedInterval,
    IntervalKind,
    IntervalPair,
    MissingProjectionError,
    NoSharedEndpointError,
    NotBetweenError,
    NotCoordinatedError,
    OutOfRangeError,
    PairBasis,
    SideUnknownError,
    chain_distance,
    classify_interval,
    decompose,
    distance_of_pair,
    interval_pair_one_chain,
    interval_pair_two_chains,
    join_intervals,
    length_of_pair,
    make_valued_chain,
    pair,
    split_at_artificial_event,
)

BETWEEN = Betweenness.BETWEEN
P_SIDE = Betweenness.P_SIDE


def test_closed_interval_on_chain_is_symmetric(lattice12):
    p = lattice12.chains["P"]
    interval = GeneralizedInterval(p.elements[2], p.elements[6])
    got = interval_pair_one_chain(interval, p, P_SIDE, P_SIDE)
    assert (got.first, got.second) == (Fraction(4), Fraction(4))
    assert got.basis is PairBasis.ONE_CHAIN_SAME_SIDE
    assert got.is_symmetric


def test_straddle_formula(lattice12):
    p = lattice12.chains["P"]
    a, b = lattice12.event(1, 3), lattice12.event(5, 3)
    got = interval_pair_one_chain(GeneralizedInterval(a, b), p, P_SIDE, BETWEEN)
    assert (got.first, got.second) == (Fraction(4), Fraction(0))
    assert got.basis is PairBasis.ONE_CHAIN_STRADDLE


def test_degenerate_interval_pair(lattice12):
    p = lattice12.chains["P"]
    a = lattice12.event(5, 3)
    got = interval_pair_one_chain(GeneralizedInterval(a, a), p, BETWEEN, BETWEEN)
    assert (got.first, got.second) == (0, 0)


def test_side_unknown_rejected(lattice12):
    p = lattice12.chains["P"]
    a = lattice12.event(5, 3)
    with pytest.raises(SideUnknownError):
        interval_pair_one_chain(
            GeneralizedInterval(a, a), p, Betweenness.NONE, BETWEEN
        )


def test_one_chain_needs_both_projections(lattice12):
    p = lattice12.chains["P"]
    with pytest.raises(MissingProjectionError):
        interval_pair_one_chain(
            GeneralizedInterval(lattice12.event(0, 1), lattice12.event(1, 2)),
            lattice12.chains["Q"],
            BETWEEN,
            BETWEEN,
        )
    del p


def test_two_chain_quantification(lattice12):
    p, q = lattice12.chains["P"], lattice12.chains["Q"]
    interval = GeneralizedInterval(lattice12.event(4, 2), lattice12.event(7, 3))
    got = interval_pair_two_chains(interval, p, q)
    assert (got.first, got.second) == (Fraction(3), Fraction(1))
    assert got.basis is PairBasis.TWO_CHAIN
    assert got.chains == (p, q)


def test_two_chain_survey_matches_the_closed_form(lattice12):
    # P starts at (0, 0) and Q at (4, 0), both stepping (1, 1) with values
    # 0, 1, 2, ...: an event is between them iff v <= u <= v + 4, and a
    # pair of two such events is (du, dv). Every ordered pair of events is
    # tried; an endpoint outside is never quantified, and one whose side is
    # undecided is refused, never trusted.
    p, q = lattice12.chains["P"], lattice12.chains["Q"]

    def between(x):
        u, v = lattice12.coords(x)
        return v <= u <= v + 4

    events = list(lattice12.poset.events())
    quantified = set()
    for a in events:
        for b in events:
            try:
                got = interval_pair_two_chains(GeneralizedInterval(a, b), p, q)
            except (NotBetweenError, MissingProjectionError):
                continue
            assert between(a) and between(b), (a, b)
            (ua, va), (ub, vb) = lattice12.coords(a), lattice12.coords(b)
            assert (got.first, got.second) == (ub - ua, vb - va), (a, b)
            quantified.update((a, b))
    # Only events with all four projections are decided: Q needs u >= 4
    # for the backward one and v < len(Q) for the forward one. Of these,
    # the table places 26 between the chains (P's own elements match case
    # I first, so they sit on P's side).
    decided = {x for x in events if between(x)
               and lattice12.coords(x)[0] >= 4 and lattice12.coords(x)[1] < len(q)}
    assert quantified <= decided
    assert len(quantified) == 26


def test_two_chain_degenerate(lattice12):
    p, q = lattice12.chains["P"], lattice12.chains["Q"]
    a = lattice12.event(6, 4)
    got = interval_pair_two_chains(GeneralizedInterval(a, a), p, q)
    assert (got.first, got.second) == (0, 0)


def test_two_chain_equals_backward_lengths_when_coordinated(lattice12):
    # The second component equals the backward-projection length on P.
    p, q = lattice12.chains["P"], lattice12.chains["Q"]
    a, b = lattice12.event(6, 4), lattice12.event(9, 5)
    two = interval_pair_two_chains(GeneralizedInterval(a, b), p, q)
    one = interval_pair_one_chain(GeneralizedInterval(a, b), p, BETWEEN, BETWEEN)
    assert two.second == one.second
    assert two.first == one.first


def test_two_chain_rejects_outside_endpoint(lattice12):
    p, q = lattice12.chains["P"], lattice12.chains["Q"]
    outside = lattice12.event(4, 6)  # beyond P, away from Q
    inside = lattice12.event(8, 5)
    with pytest.raises(NotBetweenError):
        interval_pair_two_chains(GeneralizedInterval(outside, inside), p, q)


def test_two_chain_requires_coordination(lattice12):
    p, q = lattice12.chains["P"], lattice12.chains["Q"]
    doubled = q.revalued([2 * v for v in q.values])
    interval = GeneralizedInterval(lattice12.event(6, 4), lattice12.event(8, 5))
    with pytest.raises(NotCoordinatedError):
        interval_pair_two_chains(interval, p, doubled)


def test_length_of_pair():
    assert length_of_pair(pair(7, 7)) == 7
    assert length_of_pair(pair(4, 1)) == Fraction(5, 2)
    assert length_of_pair(pair(3, -3)) == 0


def test_distance_of_pair():
    assert distance_of_pair(pair(7, 7)) == 0
    assert distance_of_pair(pair(4, 1)) == Fraction(3, 2)
    assert distance_of_pair(pair(3, -3)) == 3


def test_chain_distance_to_itself(lattice12):
    p = lattice12.chains["P"]
    for a in p.elements[::3]:
        for b in p.elements[::3]:
            assert chain_distance(p, p, a, b) == 0


def test_chain_distance_constant_and_magnitude(lattice12):
    p, q = lattice12.chains["P"], lattice12.chains["Q"]
    seen = set()
    for a in p.elements:
        for b in q.elements:
            try:
                seen.add(chain_distance(p, q, a, b))
            except Exception:
                continue
    assert seen == {Fraction(-2)}


def test_chain_distance_refuses_one_sided_overlap(lattice12):
    # T starts later than P, so full-window projections pile up one way
    # and the distance would depend on the chosen elements; the scoped
    # windows restore a well-defined constant value.
    p, t = lattice12.chains["P"], lattice12.chains["T"]
    with pytest.raises(NotCoordinatedError):
        chain_distance(t, p, t.elements[0], p.elements[0])
    scoped = set()
    for a in p.elements[2:10]:
        for b in t.elements[:6]:
            try:
                scoped.add(chain_distance(p, t, a, b, (2, 9), (0, 7)))
            except Exception:
                continue
    assert scoped == {Fraction(-1)}


def test_chain_distance_symmetric_under_swap(lattice12):
    # The defining combination is invariant under exchanging the chains;
    # a pair of chains alone carries no spatial orientation.
    p, q = lattice12.chains["P"], lattice12.chains["Q"]
    a, b = lattice12.event(6, 6), lattice12.event(9, 5)
    assert chain_distance(p, q, a, b) == chain_distance(q, p, b, a) == Fraction(-2)


def test_decompose_splits_and_readds():
    sym, anti = decompose(pair(4, 1))
    assert (sym.first, sym.second) == (Fraction(5, 2), Fraction(5, 2))
    assert (anti.first, anti.second) == (Fraction(3, 2), Fraction(-3, 2))


def test_decompose_pure_inputs():
    sym, anti = decompose(pair(5, 5))
    assert (anti.first, anti.second) == (0, 0)
    sym, anti = decompose(pair(5, -5))
    assert (sym.first, sym.second) == (0, 0)


@given(st.fractions(max_denominator=50), st.fractions(max_denominator=50))
def test_decompose_roundtrip(a, b):
    source = pair(a, b)
    sym, anti = decompose(source)
    assert sym.is_symmetric and anti.is_antisymmetric
    assert sym.first + anti.first == source.first
    assert sym.second + anti.second == source.second


def test_classify_interval():
    chainlike = classify_interval(pair(3, 3))
    assert chainlike.kind is IntervalKind.CHAIN_LIKE and chainlike.pure
    mixed = classify_interval(pair(4, 1))
    assert mixed.kind is IntervalKind.CHAIN_LIKE and not mixed.pure
    anti = classify_interval(pair(3, -3))
    assert anti.kind is IntervalKind.ANTICHAIN_LIKE and anti.pure
    null = classify_interval(pair(3, 0))
    assert null.kind is IntervalKind.PROJECTION_LIKE and not null.pure
    degenerate = classify_interval(pair(0, 0))
    assert degenerate.kind is IntervalKind.PROJECTION_LIKE and degenerate.pure


def test_join_adds_componentwise(lattice12):
    pq = (lattice12.chains["P"], lattice12.chains["Q"])
    left = GeneralizedInterval(0, 1)
    right = GeneralizedInterval(1, 2)
    joined, summed = join_intervals(
        left,
        IntervalPair(1, 2, PairBasis.TWO_CHAIN, pq),
        right,
        IntervalPair(3, -1, PairBasis.TWO_CHAIN, pq),
    )
    assert (joined.a, joined.b) == (0, 2)
    assert (summed.first, summed.second) == (4, 1)


def test_join_identity(lattice12):
    pq = (lattice12.chains["P"], lattice12.chains["Q"])
    point = GeneralizedInterval(1, 1)
    stretch = GeneralizedInterval(1, 4)
    zero = IntervalPair(0, 0, PairBasis.TWO_CHAIN, pq)
    some = IntervalPair(2, 5, PairBasis.TWO_CHAIN, pq)
    _, summed = join_intervals(point, zero, stretch, some)
    assert (summed.first, summed.second) == (2, 5)


def test_join_needs_shared_endpoint():
    with pytest.raises(NoSharedEndpointError):
        join_intervals(
            GeneralizedInterval(0, 1),
            pair(1, 1),
            GeneralizedInterval(2, 3),
            pair(1, 1),
        )


def test_join_rejects_cross_basis(lattice12):
    p, q, r = (lattice12.chains[name] for name in "PQR")
    left = GeneralizedInterval(0, 1)
    right = GeneralizedInterval(1, 2)
    with pytest.raises(BasisMismatchError) as exc:
        join_intervals(
            left,
            IntervalPair(1, 1, PairBasis.TWO_CHAIN, (p, q)),
            right,
            IntervalPair(1, 1, PairBasis.TWO_CHAIN, (q, r)),
        )
    assert str(exc.value) == (
        "cannot add pairs quantified in bases two-chain ('P', 'Q') and two-chain ('Q', 'R')"
    )
    with pytest.raises(BasisMismatchError):
        join_intervals(
            left,
            IntervalPair(1, 1, PairBasis.TWO_CHAIN, (p, q)),
            right,
            IntervalPair(1, 1, PairBasis.ONE_CHAIN_SAME_SIDE, (p, q)),
        )


def test_join_is_associative():
    pairs = [pair(1, 2), pair(3, -1), pair(-2, 4)]
    intervals = [GeneralizedInterval(i, i + 1) for i in range(3)]
    ab, pair_ab = join_intervals(intervals[0], pairs[0], intervals[1], pairs[1])
    left, left_pair = join_intervals(ab, pair_ab, intervals[2], pairs[2])
    bc, pair_bc = join_intervals(intervals[1], pairs[1], intervals[2], pairs[2])
    right, right_pair = join_intervals(intervals[0], pairs[0], bc, pair_bc)
    assert (left.a, left.b) == (right.a, right.b)
    assert (left_pair.first, left_pair.second) == (right_pair.first, right_pair.second)


def test_artificial_event_split(lattice12):
    p, q = lattice12.chains["P"], lattice12.chains["Q"]
    a, b = lattice12.event(5, 4), lattice12.event(9, 5)
    source = interval_pair_two_chains(GeneralizedInterval(a, b), p, q)
    assert (source.first, source.second) == (4, 1)
    p0, q0 = split_at_artificial_event(GeneralizedInterval(a, b), p, q)
    assert (p0, q0) == (Fraction(13, 2), Fraction(5, 2))
    pa, qa = Fraction(5), Fraction(4)
    pb, qb = Fraction(9), Fraction(5)
    first = pair(p0 - pa, q0 - qa)
    second = pair(pb - p0, qb - q0)
    assert first.is_antisymmetric
    assert second.is_symmetric
    assert first.first + second.first == source.first
    assert first.second + second.second == source.second


def test_artificial_event_split_exhaustive(lattice12):
    # Every interval between the chains splits into an antisymmetric part
    # followed by a symmetric part that re-add to the original pair.
    from eventposet import Betweenness, betweenness_of, forward_project

    p, q = lattice12.chains["P"], lattice12.chains["Q"]
    between = []
    for event in lattice12.poset.events():
        try:
            if betweenness_of(event, p.chain, q.chain) is Betweenness.BETWEEN:
                between.append(event)
        except Exception:
            continue
    assert len(between) >= 10
    for a in between[::2]:
        for b in between[::2]:
            interval = GeneralizedInterval(a, b)
            source = interval_pair_two_chains(interval, p, q)
            p0, q0 = split_at_artificial_event(interval, p, q)
            pa = p.value_of(forward_project(a, p.chain))
            qa = q.value_of(forward_project(a, q.chain))
            pb = p.value_of(forward_project(b, p.chain))
            qb = q.value_of(forward_project(b, q.chain))
            head = pair(p0 - pa, q0 - qa)
            tail = pair(pb - p0, qb - q0)
            assert head.is_antisymmetric
            assert tail.is_symmetric
            assert head.first + tail.first == source.first
            assert head.second + tail.second == source.second


def test_artificial_event_of_symmetric_interval_is_start(lattice12):
    p, q = lattice12.chains["P"], lattice12.chains["Q"]
    a, b = lattice12.event(5, 4), lattice12.event(7, 6)
    p0, q0 = split_at_artificial_event(GeneralizedInterval(a, b), p, q)
    assert (p0, q0) == (Fraction(5), Fraction(4))  # projections of a


def test_artificial_event_of_antisymmetric_interval_is_end(lattice12):
    p, q = lattice12.chains["P"], lattice12.chains["Q"]
    a, b = lattice12.event(6, 5), lattice12.event(7, 4)
    p0, q0 = split_at_artificial_event(GeneralizedInterval(a, b), p, q)
    assert (p0, q0) == (Fraction(7), Fraction(4))  # projections of b


@pytest.mark.parametrize(
    "names", [("P", "Q"), ("", ""), ("X", "X")], ids=["named", "unnamed", "same-name"]
)
def test_artificial_event_ignores_chain_names(lattice12, names):
    # The split is a property of the chains, not of their names: unnamed
    # or equally named chains must give the same event as P, Q.
    p, q = (
        make_valued_chain(lattice12.poset, vc.elements, vc.values, name)
        for vc, name in zip((lattice12.chains["P"], lattice12.chains["Q"]), names)
    )
    a, b = lattice12.event(5, 4), lattice12.event(9, 5)
    p0, q0 = split_at_artificial_event(GeneralizedInterval(a, b), p, q)
    assert (p0, q0) == (Fraction(13, 2), Fraction(5, 2))


@pytest.mark.parametrize(
    "names", [("P", "Q"), ("", ""), ("X", "X")], ids=["named", "unnamed", "same-name"]
)
def test_join_refuses_pairs_on_different_chains(lattice12, names):
    # Pairs quantified by different chains describe different subspaces,
    # whatever the chains are called; pairs on one chain still add.
    p, q = (
        make_valued_chain(lattice12.poset, vc.elements, vc.values, name)
        for vc, name in zip((lattice12.chains["P"], lattice12.chains["Q"]), names)
    )
    first = GeneralizedInterval(lattice12.event(3, 1), lattice12.event(4, 2))
    second = GeneralizedInterval(lattice12.event(4, 2), lattice12.event(5, 3))
    on_p = interval_pair_one_chain(first, p, BETWEEN, BETWEEN)
    with pytest.raises(BasisMismatchError):
        join_intervals(first, on_p, second, interval_pair_one_chain(second, q, BETWEEN, BETWEEN))
    _, joined = join_intervals(
        first, on_p, second, interval_pair_one_chain(second, p, BETWEEN, BETWEEN)
    )
    assert (joined.first, joined.second) == (Fraction(2), Fraction(2))


def test_scoped_chain_distance_refuses_elements_outside_windows(lattice12):
    # Coordination is proved over the windows only, so the distance is
    # element-independent only there. P's elements 0 and 1 lie outside
    # (2, 9); they used to give -2 and -3/2 instead of -1.
    p, t = lattice12.chains["P"], lattice12.chains["T"]
    windows = ((2, 9), (0, 7))
    for i, a in enumerate(p.elements):
        for b in t.elements:
            if 2 <= i <= 9:
                assert chain_distance(p, t, a, b, *windows) == Fraction(-1)
            else:
                with pytest.raises(OutOfRangeError):
                    chain_distance(p, t, a, b, *windows)
    with pytest.raises(OutOfRangeError):
        chain_distance(p, t, p.elements[4], t.elements[6], (2, 9), (0, 5))


def test_not_collinear_endpoint_is_refused():
    # The endpoint matches no identity block, so it is on no side of the
    # chains; only an endpoint with a missing projection is trusted.
    from eventposet import betweenness_of, build_poset, check_coordinated

    poset = build_poset(
        12,
        [(0, 4), (0, 5), (1, 0), (1, 10), (1, 11), (3, 0), (3, 6), (3, 11), (5, 2), (6, 2),
         (6, 4), (6, 9), (7, 1), (7, 6), (8, 6), (8, 10), (8, 11), (10, 5), (10, 9), (11, 2)],
    )
    p = make_valued_chain(poset, (7, 1, 11, 2), range(4), "P")
    q = make_valued_chain(poset, (8, 6, 9), range(3), "Q")
    assert check_coordinated(p, q)
    assert betweenness_of(10, p.chain, q.chain) is Betweenness.NONE
    for interval in (GeneralizedInterval(10, 6), GeneralizedInterval(6, 10)):
        with pytest.raises(NotBetweenError):
            interval_pair_two_chains(interval, p, q)
        with pytest.raises(NotBetweenError):
            split_at_artificial_event(interval, p, q)

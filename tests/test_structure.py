import copy
import gc
import pickle
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import permutations

import pytest

import oracles
from eventposet import structure
from eventposet import (
    Betweenness,
    Chain,
    ClosedInterval,
    CollinearityCase,
    DegenerateTransformError,
    DifferentChainsError,
    EventPosetError,
    GeneralizedInterval,
    IntervalPosition,
    MissingProjectionError,
    NotBetweenError,
    NotCompatibleError,
    NotCoordinatedError,
    NotLinearlyRelatedError,
    NotProperlyCollinearError,
    NotQuantifiableError,
    OutOfRangeError,
    PairTransform,
    LatticeChainSpec,
    LatticeSpec,
    beta,
    backward_project,
    betweenness_of,
    build_poset,
    chain_distance,
    chain_poset,
    chain_properly_collinear,
    check_compatible,
    check_coordinated,
    collinearity_case,
    compose_transforms,
    detect_linear_relation,
    forward_project,
    generate_lattice,
    induced_chain_order,
    interval_betweenness,
    interval_pair_two_chains,
    is_properly_collinear,
    make_valued_chain,
)


@pytest.fixture(scope="module")
def wide():
    # Rest chains at u-offsets 0, 4, 8 with room for all mutual projections.
    spec = LatticeSpec(
        20,
        12,
        (
            LatticeChainSpec("P", 1, 1, 0, 0),
            LatticeChainSpec("Q", 1, 1, 4, 0),
            LatticeChainSpec("R", 1, 1, 8, 0),
        ),
    )
    return generate_lattice(spec)


def case_iv_poset():
    # q1 < p1 < x < q2 < p2: between its projections the chains cross once.
    poset = build_poset(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    p = Chain(poset, (1, 4), "P")
    q = Chain(poset, (0, 3), "Q")
    return poset, 2, p, q


def non_collinear_poset():
    poset = build_poset(5, [(0, 2), (1, 2), (2, 3), (2, 4), (0, 1)])
    p = Chain(poset, (0, 3), "P")
    q = Chain(poset, (1, 4), "Q")
    return poset, 2, p, q


def test_between_two_rest_chains(wide):
    p, r = wide.chains["P"], wide.chains["R"]
    x = wide.event(9, 4)
    assert collinearity_case(x, p.chain, r.chain) is CollinearityCase.II
    assert betweenness_of(x, p.chain, r.chain) is Betweenness.BETWEEN
    assert is_properly_collinear(x, p.chain, r.chain)


def test_left_of_both_chains(wide):
    p, q = wide.chains["P"], wide.chains["Q"]
    x = wide.event(4, 6)
    assert collinearity_case(x, p.chain, q.chain) is CollinearityCase.I
    assert betweenness_of(x, p.chain, q.chain) is Betweenness.P_SIDE


def test_right_of_both_chains(wide):
    p, q = wide.chains["P"], wide.chains["Q"]
    x = wide.event(9, 2)
    assert collinearity_case(x, p.chain, q.chain) is CollinearityCase.III
    assert betweenness_of(x, p.chain, q.chain) is Betweenness.Q_SIDE


def test_not_collinear_configuration():
    _, x, p, q = non_collinear_poset()
    assert collinearity_case(x, p, q) is CollinearityCase.NOT_COLLINEAR
    assert not is_properly_collinear(x, p, q)
    assert betweenness_of(x, p, q) is Betweenness.NONE


def test_half_twist_case_iv():
    _, x, p, q = case_iv_poset()
    assert collinearity_case(x, p, q) is CollinearityCase.IV
    assert not is_properly_collinear(x, p, q)


def test_case_iv_becomes_v_under_order_reversal():
    poset, x, p, q = case_iv_poset()
    rev = poset.reverse()
    p_rev = Chain(rev, p.elements[::-1], "P")
    q_rev = Chain(rev, q.elements[::-1], "Q")
    assert collinearity_case(x, p_rev, q_rev) is CollinearityCase.V


def test_proper_collinearity_survives_order_reversal(wide):
    p, r = wide.chains["P"], wide.chains["R"]
    rev = wide.poset.reverse()
    p_rev = Chain(rev, p.elements[::-1], "P")
    r_rev = Chain(rev, r.elements[::-1], "R")
    for x in wide.poset.events():
        try:
            direct = collinearity_case(x, p.chain, r.chain)
            dual = collinearity_case(x, p_rev, r_rev)
        except MissingProjectionError:
            continue
        if direct in (CollinearityCase.I, CollinearityCase.II, CollinearityCase.III):
            assert dual is direct


def test_missing_primary_projection_raises(wide):
    p, q = wide.chains["P"], wide.chains["Q"]
    # The origin has nothing below it on Q.
    with pytest.raises(MissingProjectionError):
        collinearity_case(wide.event(0, 0), p.chain, q.chain)


def test_chain_between_two_chains(lattice12):
    p, q, t = (lattice12.chains[k] for k in "PQT")
    assert chain_properly_collinear(t.subchain(0, 5).chain, p.chain, q.chain)


def test_chain_with_gap_not_properly_collinear(lattice12):
    p, q = lattice12.chains["P"], lattice12.chains["Q"]
    gappy = Chain(lattice12.poset, (p.elements[4], p.elements[5], p.elements[7]), "X")
    assert not chain_properly_collinear(gappy, p.chain, q.chain)


def test_chain_with_a_not_collinear_element_not_properly_collinear(lattice12):
    # (5, 1) projects onto Q and S without a gap, but matches no case.
    q, s = lattice12.chains["Q"].chain, lattice12.chains["S"].chain
    x = lattice12.event(5, 1)
    assert collinearity_case(x, q, s) is CollinearityCase.NOT_COLLINEAR
    assert not chain_properly_collinear(Chain(lattice12.poset, (x,), "X"), q, s)


def test_chain_collinear_with_itself(lattice12):
    p, q = lattice12.chains["P"], lattice12.chains["Q"]
    assert chain_properly_collinear(p.subchain(4, 7).chain, p.chain, q.chain)


def test_interval_betweenness_both_between(lattice12):
    p, q = lattice12.chains["P"], lattice12.chains["Q"]
    a, b = lattice12.event(6, 4), lattice12.event(8, 5)
    assert interval_betweenness(a, b, p.chain, q.chain) is IntervalPosition.BETWEEN


def test_interval_betweenness_straddles_one_chain(lattice12):
    p, q = lattice12.chains["P"], lattice12.chains["Q"]
    a, b = lattice12.event(4, 6), lattice12.event(8, 5)
    assert interval_betweenness(a, b, p.chain, q.chain) is IntervalPosition.A_P_B_Q
    assert interval_betweenness(b, a, p.chain, q.chain) is IntervalPosition.B_P_A_Q


def test_interval_betweenness_q_side(wide):
    p, q = wide.chains["P"], wide.chains["Q"]
    a, b = wide.event(9, 2), wide.event(10, 3)
    assert interval_betweenness(a, b, p.chain, q.chain) is IntervalPosition.INTERVAL_Q_SIDE


def test_interval_betweenness_requires_proper_collinearity():
    _, x, p, q = case_iv_poset()
    other = p.elements[0]
    with pytest.raises(NotProperlyCollinearError):
        interval_betweenness(x, other, p, q)


def test_induced_chain_order(wide):
    p, q, r = (wide.chains[k] for k in "PQR")
    middle = q.subchain(4, 7).chain
    assert induced_chain_order(p.chain, middle, r.chain) == (p.chain, middle, r.chain)
    assert induced_chain_order(r.chain, middle, p.chain) == (r.chain, middle, p.chain)


def test_induced_chain_order_rejects_outer_chain(wide):
    p, q, r = (wide.chains[k] for k in "PQR")
    left = p.subchain(8, 11).chain
    with pytest.raises(NotBetweenError):
        induced_chain_order(q.chain, left, r.chain)


def test_compatibility_full_windows(lattice12):
    p, q = lattice12.chains["P"], lattice12.chains["Q"]
    assert check_compatible(p, q)
    assert check_compatible(q, p)
    assert check_compatible(p, p)


def test_incompatible_two_to_one():
    spec = LatticeSpec(
        12,
        12,
        (
            LatticeChainSpec("F", 1, 1, 0, 0),
            LatticeChainSpec("C", 2, 2, 0, 0),
        ),
    )
    lattice = generate_lattice(spec)
    fine, coarse = lattice.chains["F"], lattice.chains["C"]
    assert not check_compatible(fine, coarse)
    assert not check_compatible(coarse, fine)


def test_compatibility_needs_overlap(lattice12):
    p, q = lattice12.chains["P"], lattice12.chains["Q"]
    with pytest.raises(MissingProjectionError):
        check_compatible(p, q, (0, 1), (6, 7))


def test_coordinated_rest_chains(lattice12):
    p, q = lattice12.chains["P"], lattice12.chains["Q"]
    assert check_coordinated(p, q)
    assert check_coordinated(q, p)
    assert check_coordinated(p, p)


def test_double_rate_breaks_coordination(lattice12):
    p, q = lattice12.chains["P"], lattice12.chains["Q"]
    doubled = q.revalued([2 * v for v in q.values])
    assert not check_coordinated(p, doubled)
    assert not check_coordinated(doubled, p)


def test_coordinated_requires_compatible():
    spec = LatticeSpec(
        8,
        8,
        (
            LatticeChainSpec("F", 1, 1, 0, 0),
            LatticeChainSpec("C", 2, 2, 0, 0),
        ),
    )
    lattice = generate_lattice(spec)
    with pytest.raises(NotCompatibleError):
        check_coordinated(lattice.chains["F"], lattice.chains["C"])


def _windows(vc):
    top, mid = len(vc) - 1, (len(vc) - 1) // 2
    return (None, (0, mid), (mid, top), (top, top))


def _outcome(check, *args):
    try:
        return check(*args)
    except EventPosetError as exc:
        return type(exc)


def test_coordinated_fails_exactly_where_compatibility_does(lattice8):
    # check_coordinated and check_compatible read one cached proof; the
    # former must raise NotCompatibleError where the latter returns False
    # and MissingProjectionError where the latter raises it.
    expected = {
        True: (True, False),
        False: (NotCompatibleError,),
        MissingProjectionError: (MissingProjectionError,),
    }
    seen = set()
    chains = list(lattice8.chains.values())
    for p in chains:
        for q in chains:
            for p_range in _windows(p):
                for q_range in _windows(q):
                    args = (p, q, p_range, q_range)
                    compatible = _outcome(check_compatible, *args)
                    coordinated = _outcome(check_coordinated, *args)
                    assert coordinated in expected[compatible], (
                        p.name, q.name, p_range, q_range, compatible, coordinated
                    )
                    seen.add(compatible)
    assert seen == set(expected)


def test_scoped_ranges_coordinate_interior_chain(lattice12):
    p, t = lattice12.chains["P"], lattice12.chains["T"]
    assert not check_compatible(p, t)
    assert check_coordinated(p, t, (2, len(t) + 1), (0, len(t) - 1))


def test_linear_relation_coordinated_is_unit(lattice12):
    p, q = lattice12.chains["P"], lattice12.chains["Q"]
    assert detect_linear_relation(p.subchain(4, 7), q) == PairTransform(
        Fraction(1), Fraction(1)
    )


def test_linear_relation_boosted(lattice12):
    s, p = lattice12.chains["S"], lattice12.chains["P"]
    relation = detect_linear_relation(s, p)
    assert (relation.m, relation.n) == (Fraction(4), Fraction(1))


def test_linear_relation_self(lattice12):
    p = lattice12.chains["P"]
    assert detect_linear_relation(p, p) == PairTransform(Fraction(1), Fraction(1))


def test_linear_relation_irregular_chain(lattice12):
    poset = lattice12.poset
    elements = tuple(
        lattice12.event(c, c) for c in (0, 1, 2, 4)
    )
    irregular = make_valued_chain(poset, elements, (0, 1, 2, 3), "X")
    with pytest.raises(NotLinearlyRelatedError):
        detect_linear_relation(irregular, lattice12.chains["P"])


# A total order 0 < 1 < ... < 5 with P = (0, 3, 5): events 1 and 2 both
# project forward to 3 and backward to 0, and event 4 to 5 and 3.
def _coarse(elements, values):
    poset = chain_poset(6)
    p = make_valued_chain(poset, (0, 3, 5), (0, 1, 2), "P")
    return make_valued_chain(poset, elements, values, "S"), p


def test_linear_relation_skips_a_coarse_grained_step():
    s, p = _coarse((1, 2, 4), (0, 0, 1))
    assert detect_linear_relation(s, p) == PairTransform(Fraction(1), Fraction(1))


def test_linear_relation_refuses_a_zero_step_with_projected_length():
    s, p = _coarse((2, 4), (0, 0))
    with pytest.raises(
        NotLinearlyRelatedError,
        match="zero-length step 0 of 'S' projects onto 'P' with nonzero length",
    ):
        detect_linear_relation(s, p)


def test_linear_relation_refuses_a_chain_of_zero_steps():
    s, p = _coarse((1, 2), (0, 0))
    with pytest.raises(NotLinearlyRelatedError, match="chain 'S' has zero total length"):
        detect_linear_relation(s, p)


def test_linear_relation_refuses_a_one_element_chain():
    s, p = _coarse((1,), (0,))
    with pytest.raises(NotLinearlyRelatedError, match="chain 'S' has no steps to compare"):
        detect_linear_relation(s, p)


def test_coordination_refuses_chains_of_different_posets(lattice8, lattice12, wide):
    # Each chain's ids index its own poset only.
    for p, q in (
        (lattice8.chains["P"], lattice12.chains["Q"]),
        (lattice12.chains["P"], lattice8.chains["Q"]),
    ):
        with pytest.raises(DifferentChainsError):
            check_compatible(p, q)
        with pytest.raises(DifferentChainsError):
            check_coordinated(p, q)
    # A second build of the same lattice has the same ids on another poset.
    # Each of these used to read one poset's tables at the other's ids and
    # answer: (1, 1), True and (P, Q, R).
    other = generate_lattice(wide.spec)
    middle = wide.chains["Q"].subchain(4, 7)
    p, r = other.chains["P"], other.chains["R"]
    for call in (
        lambda: detect_linear_relation(middle, p),
        lambda: chain_properly_collinear(middle.chain, p.chain, r.chain),
        lambda: induced_chain_order(p.chain, middle.chain, r.chain),
    ):
        with pytest.raises(DifferentChainsError):
            call()


def test_detected_transforms_compose_by_the_k_calculus():
    # Bondi's k-factors multiply along U -> S -> P, and the betas obey
    # velocity addition, for transforms detected on poset data. Every
    # chain starts at the origin; ``steps`` gives its (du, dv) per tick.
    steps = {"P": (1, 1), "A": (2, 1), "B": (4, 1), "C": (8, 1), "D": (16, 1), "E": (3, 2), "F": (9, 4)}
    lattice = generate_lattice(LatticeSpec(64, 64, tuple(
        LatticeChainSpec(name, du, dv) for name, (du, dv) in steps.items()
    )))
    chains = lattice.chains
    detected = {}
    for s, p in permutations(chains, 2):
        try:
            detected[s, p] = detect_linear_relation(chains[s], chains[p])
        except EventPosetError:
            continue
    assert len(detected) == 13
    for name, step in steps.items():
        if name != "P":
            assert detected[name, "P"] == PairTransform(*step)
    triples = [
        (u, s, p) for u, s, p in permutations(chains, 3)
        if {(u, s), (s, p), (u, p)} <= detected.keys()
    ]
    assert len(triples) == 11
    for u, s, p in triples:
        assert compose_transforms(detected[u, s], detected[s, p]) == detected[u, p]
        b1, b2 = beta(detected[u, s]), beta(detected[s, p])
        assert beta(detected[u, p]) == (b1 + b2) / (1 + b1 * b2)
    # D's backward image on F never moves: a null pair, named as such.
    with pytest.raises(DegenerateTransformError) as info:
        detect_linear_relation(chains["D"], chains["F"])
    message = str(info.value)
    assert "'D'" in message and "'F'" in message and "(2, 0)" in message


@pytest.mark.parametrize(
    "check, p_range, q_range",
    [
        ("coordinated", (0, 50), None),
        ("distance", (0, 50), (0, 7)),
        ("compatible", None, (-2, 7)),
        ("coordinated", None, (-2, 7)),
        ("compatible", (5, 2), None),
        ("distance", None, (5, 2)),
        ("compatible", (0, 12), None),
        ("coordinated", (0,), None),
        ("distance", "ab", None),
        ("compatible", (0.0, 7), None),
        ("coordinated", (True, 7), None),
        ("subchain", (-3, 5), None),
        ("subchain", (2, 100), None),
        ("subchain", (4, 2), None),
        ("subchain", (True, 3), None),
        ("subchain", (0.5, 2), None),
        ("closed", (2, 1), None),
        ("closed", (0, 12), None),
        ("closed", (0.5, 1), None),
        ("closed", (True, 3), None),
    ],
)
def test_windows_must_be_index_ranges(lattice12, check, p_range, q_range):
    # Each window, subchain and closed interval needs ints with
    # 0 <= lo <= hi < len(chain). Out of range windows used to raise
    # IndexError, and a negative lo used to wrap around to the chain's end
    # and give a wrong verdict; subchain sliced whatever it was given.
    p, q = lattice12.chains["P"], lattice12.chains["Q"]
    calls = {
        "compatible": lambda: check_compatible(p, q, p_range, q_range),
        "coordinated": lambda: check_coordinated(p, q, p_range, q_range),
        "distance": lambda: chain_distance(
            p, q, p.elements[5], q.elements[5], p_range, q_range
        ),
        "subchain": lambda: p.subchain(*p_range),
        "closed": lambda: ClosedInterval(p, *p_range),
    }
    window, chain = (p_range, p) if p_range is not None else (q_range, q)
    with pytest.raises(OutOfRangeError) as info:
        calls[check]()
    assert str(info.value) == (
        f"window {window!r} is not an index range (lo, hi) with "
        f"0 <= lo <= hi < {len(chain)} on chain {chain.name!r}"
    )


def test_chain_distance_refuses_an_event_off_its_chain(lattice12):
    p, q = lattice12.chains["P"], lattice12.chains["Q"]
    with pytest.raises(OutOfRangeError, match=f"event {q.elements[0]} is not on chain 'P'"):
        chain_distance(p, q, q.elements[0], q.elements[0])


def test_list_windows_work_like_tuples(lattice12):
    p, q = lattice12.chains["P"], lattice12.chains["Q"]
    assert check_compatible(p, q, None, [0, 7]) is check_compatible(p, q, None, (0, 7))
    assert check_coordinated(p, q, [0, 7], [0, 7]) is check_coordinated(p, q, (0, 7), (0, 7))
    a, b = p.elements[3], q.elements[3]
    assert chain_distance(p, q, a, b, [0, 7], [0, 7]) == chain_distance(
        p, q, a, b, (0, 7), (0, 7)
    )


def test_refused_coordination_names_its_witness(lattice12):
    p, q = lattice12.chains["P"], lattice12.chains["Q"]
    doubled = q.revalued([2 * v for v in q.values])
    interval = GeneralizedInterval(lattice12.event(4, 2), lattice12.event(5, 3))
    with pytest.raises(NotCoordinatedError) as info:
        interval_pair_two_chains(interval, p, doubled)
    assert str(info.value) == (
        "chains 'P' and 'Q' do not preserve projected interval lengths: "
        "the forward P->Q projection maps indices (0, 1) to (0, 1), "
        "a step of 1 to one of 2"
    )


def test_refused_coordination_names_the_chains_once(lattice12):
    # The refusal is the compatibility message as it is, not prefixed
    # with the chain names a second time.
    p, q, t = (lattice12.chains[name] for name in "PQT")
    with pytest.raises(NotCoordinatedError) as info:
        chain_distance(p, t, p.elements[0], t.elements[0])
    assert str(info.value) == (
        "chains 'P' and 'T' are not compatible over the inspected ranges"
    )
    with pytest.raises(NotCoordinatedError) as info:
        chain_distance(p, q, p.elements[0], q.elements[6], (0, 1), (6, 7))
    assert str(info.value) == (
        "chains 'P' and 'Q' share no projections over the inspected ranges"
    )


def _two_chain_outcome(p, q, p_range, q_range):
    # Outcome of both cached entry points, errors by type and message.
    def outcome(call):
        try:
            return call()
        except EventPosetError as exc:
            return type(exc), str(exc)

    lo_p = p_range[0] if p_range else 0
    lo_q = q_range[0] if q_range else 0
    interval = GeneralizedInterval(p.elements[lo_p], q.elements[lo_q])
    return (
        outcome(lambda: interval_pair_two_chains(interval, p, q)),
        outcome(lambda: chain_distance(
            p, q, p.elements[lo_p], q.elements[lo_q], p_range, q_range
        )),
    )


def _rebuilt(vc):
    return make_valued_chain(vc.poset, vc.elements, vc.values, vc.name)


def test_cached_coordination_agrees_with_first_proof(lattice8):
    chains = list(lattice8.chains.values())
    outcomes = set()
    for p in chains:
        for q in chains:
            for p_range in _windows(p):
                for q_range in _windows(q):
                    args = (p_range, q_range)
                    first = _two_chain_outcome(p, q, *args)
                    assert _two_chain_outcome(p, q, *args) == first
                    assert _two_chain_outcome(_rebuilt(p), _rebuilt(q), *args) == first
                    outcomes.add(first[1] if isinstance(first[1], tuple) else "ok")
    # The sweep meets proved pairs and each kind of refusal.
    assert "ok" in outcomes and len(outcomes) > 2


def test_revalued_partner_is_proved_afresh(lattice12):
    p, q = lattice12.chains["P"], _rebuilt(lattice12.chains["Q"])
    interval = GeneralizedInterval(lattice12.event(4, 2), lattice12.event(5, 3))
    assert interval_pair_two_chains(interval, p, q) == interval_pair_two_chains(
        interval, p, q
    )
    doubled = q.revalued([2 * v for v in q.values])
    assert doubled.chain is q.chain
    with pytest.raises(NotCoordinatedError):
        interval_pair_two_chains(interval, p, doubled)
    with pytest.raises(NotCoordinatedError):
        chain_distance(p, doubled, p.elements[0], q.elements[0])


def test_cached_refusal_repeats_its_message(lattice12):
    p, t = lattice12.chains["P"], _rebuilt(lattice12.chains["T"])
    messages = []
    for _ in range(2):
        with pytest.raises(NotCoordinatedError) as info:
            chain_distance(t, p, t.elements[0], p.elements[0])
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert len(t._coordinations) == 1


@pytest.fixture
def map_builds(monkeypatch):
    """The number of window maps structure builds while the test runs."""
    builds = []
    build = structure._window_map

    def counted(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(structure, "_window_map", counted)
    return builds


def test_every_entry_point_shares_one_proof(lattice12, map_builds):
    p, q = _rebuilt(lattice12.chains["P"]), _rebuilt(lattice12.chains["Q"])
    interval = GeneralizedInterval(lattice12.event(4, 2), lattice12.event(5, 3))
    assert check_coordinated(p, q)
    chain_distance(p, q, p.elements[0], q.elements[0])
    interval_pair_two_chains(interval, p, q)
    assert check_compatible(p, q)
    # The four maps of one pass: forward and backward, each way.
    assert len(map_builds) == 4


def test_a_refused_pair_is_proved_once(lattice12, map_builds):
    p, q = _rebuilt(lattice12.chains["P"]), lattice12.chains["Q"]
    doubled = q.revalued([2 * v for v in q.values])
    interval = GeneralizedInterval(lattice12.event(4, 2), lattice12.event(5, 3))
    messages = set()
    for refused in (
        lambda: chain_distance(p, doubled, p.elements[0], doubled.elements[0]),
        lambda: interval_pair_two_chains(interval, p, doubled),
        lambda: chain_distance(p, doubled, p.elements[0], doubled.elements[0]),
    ):
        with pytest.raises(NotCoordinatedError) as info:
            refused()
        messages.add(str(info.value))
    assert not check_coordinated(p, doubled)
    assert check_compatible(p, doubled)
    assert messages == {
        "chains 'P' and 'Q' do not preserve projected interval lengths: the "
        "forward P->Q projection maps indices (0, 1) to (0, 1), a step of 1 "
        "to one of 2"
    }
    assert len(map_builds) == 4


def test_coordination_cache_leaves_chain_identity_alone(lattice12):
    p, q = _rebuilt(lattice12.chains["P"]), _rebuilt(lattice12.chains["Q"])
    twin = _rebuilt(p)
    before = (repr(p), hash(p))
    chain_distance(p, q, p.elements[0], q.elements[0])
    chain_distance(p, q, p.elements[0], q.elements[0], (0, 5), (0, 5))
    assert p._coordinations and not twin._coordinations
    assert (repr(p), hash(p)) == before == (repr(twin), hash(twin))
    assert p == twin


def test_concurrent_first_proofs_agree(lattice12):
    # Threads race on one pair's first proof; each gets the same answer,
    # and the refused pair the same message.
    interval = GeneralizedInterval(lattice12.event(4, 2), lattice12.event(5, 3))
    q = lattice12.chains["Q"]
    doubled = q.revalued([2 * v for v in q.values])
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            p = _rebuilt(lattice12.chains["P"])
            barrier = threading.Barrier(6)

            def race():
                barrier.wait(timeout=10)
                got = interval_pair_two_chains(interval, p, q)
                try:
                    interval_pair_two_chains(interval, p, doubled)
                except NotCoordinatedError as exc:
                    return got, str(exc)
                return got, None

            with ThreadPoolExecutor(6) as pool:
                results = [f.result() for f in [pool.submit(race) for _ in range(6)]]
            assert len(set(results)) == 1
            assert results[0][1] is not None
    finally:
        sys.setswitchinterval(switch)


def test_coordination_cache_holds_partners_weakly(lattice12):
    p, q = _rebuilt(lattice12.chains["P"]), _rebuilt(lattice12.chains["Q"])
    chain_distance(p, q, p.elements[0], q.elements[0])
    assert len(p._coordinations) == 1
    assert pickle.loads(pickle.dumps(p))._coordinations == {}
    assert copy.copy(p)._coordinations == {}
    partner = weakref.ref(q)
    del q
    gc.collect()
    assert partner() is None
    assert p._coordinations == {}


def test_unquantifiable_chain_names_its_first_element_without_a_projection(lattice12):
    # Every element's case is read before any answer: P's event 0 has no
    # backward projection onto Q, though S's first element projects.
    p, s, q = (lattice12.chains[k].chain for k in "PSQ")
    with pytest.raises(
        NotQuantifiableError, match="^event 0 is forward-only with respect to chain 'Q'$"
    ):
        chain_properly_collinear(p, s, q)


_PROPER = {CollinearityCase.I, CollinearityCase.II, CollinearityCase.III}


def _reference_properly_collinear(x_chain, p_chain, q_chain):
    """Proper collinearity of a chain from the uncached case reference and
    the gap rule; refuses, through the reference, the first element in chain
    order without its four projections."""
    cases = [oracles.matching_cases(x, p_chain, q_chain) for x in x_chain.elements]
    if not all(matched and matched[0] in _PROPER for matched in cases):
        return False
    for target in (p_chain, q_chain):
        touched = {
            target.index_of(project(x, target))
            for x in x_chain.elements
            for project in (forward_project, backward_project)
        }
        if touched != set(range(min(touched), max(touched) + 1)):
            return False
    return True


def test_chain_collinearity_matches_the_reference(lattice12):
    chains = [vc.chain for vc in lattice12.chains.values()]
    answers = {True: 0, False: 0, "refused": 0}
    for chain in chains:
        for lo in range(len(chain)):
            for hi in range(lo, len(chain)):
                x_chain = chain.subchain(lo, hi)
                for p_chain, q_chain in permutations(chains, 2):
                    try:
                        want = _reference_properly_collinear(x_chain, p_chain, q_chain)
                    except NotQuantifiableError as refusal:
                        with pytest.raises(NotQuantifiableError) as got:
                            chain_properly_collinear(x_chain, p_chain, q_chain)
                        assert str(got.value) == str(refusal)
                        answers["refused"] += 1
                        continue
                    assert chain_properly_collinear(x_chain, p_chain, q_chain) is want
                    answers[want] += 1
    assert all(answers.values()), answers

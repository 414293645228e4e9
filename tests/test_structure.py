from fractions import Fraction

import pytest

from eventposet import (
    Betweenness,
    Chain,
    CollinearityCase,
    DifferentChainsError,
    EventPosetError,
    IntervalPosition,
    LinearRelation,
    MissingProjectionError,
    NotBetweenError,
    NotCompatibleError,
    NotLinearlyRelatedError,
    NotProperlyCollinearError,
    LatticeChainSpec,
    LatticeSpec,
    betweenness_of,
    build_poset,
    chain_properly_collinear,
    check_compatible,
    check_coordinated,
    collinearity_case,
    detect_linear_relation,
    generate_lattice,
    induced_chain_order,
    interval_betweenness,
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
    # check_coordinated runs the compatibility test on its own maps; it must
    # raise NotCompatibleError where check_compatible returns False and
    # MissingProjectionError where check_compatible raises it.
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
    assert detect_linear_relation(p.subchain(4, 7), q) == LinearRelation(
        Fraction(1), Fraction(1)
    )


def test_linear_relation_boosted(lattice12):
    s, p = lattice12.chains["S"], lattice12.chains["P"]
    relation = detect_linear_relation(s, p)
    assert (relation.m, relation.n) == (Fraction(4), Fraction(1))


def test_linear_relation_self(lattice12):
    p = lattice12.chains["P"]
    assert detect_linear_relation(p, p) == LinearRelation(Fraction(1), Fraction(1))


def test_linear_relation_irregular_chain(lattice12):
    poset = lattice12.poset
    elements = tuple(
        lattice12.event(c, c) for c in (0, 1, 2, 4)
    )
    irregular = make_valued_chain(poset, elements, (0, 1, 2, 3), "X")
    with pytest.raises(NotLinearlyRelatedError):
        detect_linear_relation(irregular, lattice12.chains["P"])


def test_linear_relation_rejects_negative_steps():
    with pytest.raises(ValueError):
        LinearRelation(Fraction(-1), Fraction(1))


def test_coordination_refuses_chains_of_different_posets(lattice8, lattice12):
    # Each chain's ids index its own poset only.
    for p, q in (
        (lattice8.chains["P"], lattice12.chains["Q"]),
        (lattice12.chains["P"], lattice8.chains["Q"]),
    ):
        with pytest.raises(DifferentChainsError):
            check_compatible(p, q)
        with pytest.raises(DifferentChainsError):
            check_coordinated(p, q)

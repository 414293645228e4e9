"""The float rule of interval pairs and space-time coordinates.

A float component stands for the exact rational it equals. Every function
that does arithmetic on components computes exactly and rounds each result
once; a result outside the normal float range, and an infinite or NaN
component anywhere it is accepted, raise FloatRangeError.
"""
import math
import random
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from eventposet import spacetime
from eventposet import (
    FloatRangeError,
    GeneralizedInterval,
    InvalidArgumentError,
    IntervalKind,
    IntervalPair,
    NotOrthogonalError,
    PairTransform,
    SpacetimeCoords,
    apply_pair_transform,
    chain_poset,
    classify_interval,
    combine_projection_distances,
    decompose,
    distance_of_pair,
    from_coords,
    interval_scalar,
    join_intervals,
    length_of_pair,
    make_valued_chain,
    minkowski_form,
    pair,
    pythagorean_join,
    scalar_length,
    spherical_decompose,
    to_coords,
)

TINY = sys.float_info.min  # the smallest normal float
HUGE = sys.float_info.max
EDGES = [0.0, -0.0, 5e-324, -5e-324, TINY, -TINY, TINY * (1 - 2 ** -52), 1e-200,
         1.0, 0.1, -0.2, 1e200, 1e308, -1e308, HUGE, -HUGE]
FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGES)
# A rational square (exact factor 2), and two irrational roots.
TRANSFORMS = [PairTransform(4, 1), PairTransform(2, 1), PairTransform(3, 7)]
AB, BC = GeneralizedInterval(0, 1), GeneralizedInterval(1, 2)


# The three inputs on which the intervals layer used to do float arithmetic.

def test_length_of_a_float_pair_is_its_exact_mean_rounded_once():
    # The float sum 2e308 overflows; the exact mean does not.
    assert length_of_pair(pair(1e308, 1e308)) == 1e308
    symmetric, antisymmetric = decompose(pair(1e308, 1e308))
    assert (symmetric.first, antisymmetric.first) == (1e308, 0.0)


def test_a_nan_component_is_refused_before_classification():
    with pytest.raises(FloatRangeError, match="NaN"):
        classify_interval(pair(math.nan, 1))


def test_classify_keeps_the_sign_of_an_underflowing_product():
    # 1e-200 * 1e-200 is 0.0 in floats; the exact product is positive.
    got = classify_interval(pair(1e-200, 1e-200))
    assert (got.kind, got.pure) == (IntervalKind.CHAIN_LIKE, True)


def test_a_join_beyond_float_range_raises():
    with pytest.raises(FloatRangeError, match="2.000000e\\+308"):
        join_intervals(AB, pair(1e308, 1), BC, pair(1e308, 1))


@pytest.mark.parametrize("build", [
    pytest.param(lambda bad: PairTransform(bad, 1), id="PairTransform"),
    pytest.param(lambda bad: make_valued_chain(chain_poset(2), [0, 1], [0, bad]),
                 id="make_valued_chain"),
    pytest.param(lambda bad: make_valued_chain(chain_poset(2), [0, 1], [0, 1]).revalued([bad, 1]),
                 id="revalued"),
    pytest.param(lambda bad: IntervalPair(1, bad), id="IntervalPair"),
    pytest.param(lambda bad: SpacetimeCoords(bad, 0), id="SpacetimeCoords"),
])
@pytest.mark.parametrize("bad, spelled", [
    (math.inf, "Infinity"), (-math.inf, "-Infinity"), (math.nan, "NaN")])
def test_constructors_refuse_non_finite_floats(build, bad, spelled):
    with pytest.raises(FloatRangeError, match=f"^{spelled} is not a finite number$"):
        build(bad)


def _rounded_once(exact: Fraction) -> float | None:
    """The float nearest ``exact``, or None where the rule refuses it: a
    nonzero value whose float is infinite or below the normal range."""
    try:
        value = float(exact)
    except OverflowError:
        return None
    return value if not exact or TINY <= abs(value) < math.inf else None


def _assert_rounded_once(call, *exact: Fraction):
    """``call()`` returns each exact value rounded once, as a float, or
    raises FloatRangeError exactly when one of them is out of range."""
    expected = tuple(map(_rounded_once, exact))
    if None in expected:
        with pytest.raises(FloatRangeError):
            call()
        return
    got = call()
    got = got if isinstance(got, tuple) else (got,)
    assert got == expected
    assert all(type(v) is float for v in got)


def _components(p):
    return p.first, p.second


def _outcome(fn, *args):
    try:
        return fn(*args)
    except FloatRangeError as exc:
        return str(exc)


def _sign(value: float) -> int:
    return (value > 0) - (value < 0)


@settings(max_examples=400)
@given(FLOATS, FLOATS, FLOATS, FLOATS)
def test_pair_functions_round_each_exact_result_once(a, b, c, d):
    p = pair(a, b)
    x, y, z, w = map(Fraction, (a, b, c, d))
    _assert_rounded_once(lambda: length_of_pair(p), (x + y) / 2)
    _assert_rounded_once(lambda: distance_of_pair(p), (x - y) / 2)
    _assert_rounded_once(
        lambda: sum(map(_components, decompose(p)), ()),
        (x + y) / 2, (x + y) / 2, (x - y) / 2, (y - x) / 2)
    _assert_rounded_once(
        lambda: _components(join_intervals(AB, p, BC, pair(c, d))[1]),
        x + z, y + w)
    _assert_rounded_once(
        lambda: pythagorean_join(pair(a, -a), pair(c, -c), orthogonal=True), x * x + z * z)
    _assert_rounded_once(lambda: interval_scalar(p).value, x * y)
    _assert_rounded_once(
        lambda: minkowski_form(p), x * y, ((x + y) / 2) ** 2, ((x - y) / 2) ** 2)
    _assert_rounded_once(
        lambda: (to_coords(p).dt, to_coords(p).dx), (x + y) / 2, (x - y) / 2)
    _assert_rounded_once(
        lambda: _components(from_coords(SpacetimeCoords(a, b))),
        x + y, x - y)

    # to_coords is the pair of length and distance, or raises as either does.
    coords = _outcome(to_coords, p)
    parts = (_outcome(length_of_pair, p), _outcome(distance_of_pair, p))
    if isinstance(coords, str):
        assert coords in parts
    else:
        assert (coords.dt, coords.dx) == parts

    # The sign rule, read on the components, not on their float product.
    got = classify_interval(p)
    kind = {1: IntervalKind.CHAIN_LIKE, -1: IntervalKind.ANTICHAIN_LIKE,
            0: IntervalKind.PROJECTION_LIKE}[_sign(a) * _sign(b)]
    assert (got.kind, got.pure) == (kind, abs(a) == abs(b))


@settings(max_examples=300)
@given(FLOATS, FLOATS)
def test_roots_of_float_pairs_are_within_one_ulp(a, b):
    radicand = abs(Fraction(a) * Fraction(b))
    try:
        sigma = scalar_length(pair(a, b))
    except FloatRangeError:
        # Only a root outside the normal float range is refused.
        assert 0 < radicand < Fraction(TINY) ** 2
        return
    assert type(sigma.value) is float
    assert sigma.imaginary is (_sign(a) * _sign(b) < 0)
    root, ulp = Fraction(sigma.value), Fraction(math.ulp(sigma.value))
    if root == 0:
        assert radicand == 0
        return
    assert (root - ulp) ** 2 < radicand < (root + ulp) ** 2


@settings(max_examples=300)
@given(FLOATS, FLOATS, st.sampled_from(TRANSFORMS))
def test_pair_transform_of_float_components_is_rounded_once(a, b, t):
    # The factor as the library computes it: exact, or a float root.
    factor = Fraction(apply_pair_transform(pair(1.0, 1.0), t).first)
    _assert_rounded_once(
        lambda: _components(apply_pair_transform(pair(a, b), t)),
        Fraction(a) * factor, Fraction(b) / factor)


# The spherical split: dt passes through, and the spatial components are
# dr times float sines and cosines, each product exact and rounded once.

def _assert_squares_add_to_dr_squared(spatial, dr):
    squares = sum(Fraction(c) ** 2 for c in spatial)
    radial = Fraction(dr) ** 2
    assert abs(squares - radial) <= radial / 10**12


def test_a_null_extent_splits():
    # dt = dr used to fail the check, which compared dt^2 - dr^2 with
    # dt^2 minus the squares at an absolute 1e-12: rounding leaves about
    # dr^2 * 1e-16 of both.
    dt, *spatial = spherical_decompose(100, 100, 1, 2)
    assert dt == 100.0
    _assert_squares_add_to_dr_squared(spatial, 100)


def test_null_extents_over_four_decades_split():
    rng = random.Random(139)
    for _ in range(500):
        dr = 10 ** rng.uniform(2, 4)
        dt, *spatial = spherical_decompose(dr, dr, rng.uniform(0, math.pi),
                                           rng.uniform(0, 2 * math.pi))
        assert dt == dr
        _assert_squares_add_to_dr_squared(spatial, dr)


def test_a_huge_extent_splits_without_overflow():
    dt, *spatial = spherical_decompose(1e200, 1e200, 0.3, 0.2)
    assert dt == 1e200
    _assert_squares_add_to_dr_squared(spatial, 1e200)


@pytest.mark.parametrize("args", [
    (10**400, 1, 0.1, 0.2),  # used to raise OverflowError
    (1, 10**400, 0.1, 0.2),
    (math.inf, 1, 0.1, 0.2),  # used to return inf
    (1, math.nan, 0.1, 0.2),
    (1, 1, math.inf, 0.2),  # used to raise "ValueError: math domain error"
    (1, 1, 0.1, -math.inf),
    (1, 1, math.nan, 0.2),
    (1, 1, 10**400, 0.2),  # used to raise OverflowError
    (1, 1, 0.1, Fraction(-(10**400), 3)),
])
def test_spherical_split_refuses_what_floats_cannot_hold(args):
    with pytest.raises(FloatRangeError):
        spherical_decompose(*args)


def test_spherical_split_refuses_a_broken_identity(monkeypatch):
    # sin^2 + cos^2 = 1 is what makes the squares add to dr^2; a sine
    # off by 1e-6 breaks it, and the check says so.
    broken = SimpleNamespace(cos=math.cos, isfinite=math.isfinite,
                             sin=lambda x: math.sin(x) + 1e-6)
    monkeypatch.setattr(spacetime, "math", broken)
    with pytest.raises(NotOrthogonalError, match="spherical split broke the scalar"):
        spherical_decompose(1.0, 1.0, 1.0, 2.0)


@settings(max_examples=400)
@given(FLOATS, FLOATS, FLOATS, FLOATS)
def test_spherical_split_keeps_dr_squared_or_refuses(dt, dr, theta, phi):
    try:
        t, *spatial = spherical_decompose(dt, dr, theta, phi)
    except FloatRangeError:
        return
    assert t == dt
    _assert_squares_add_to_dr_squared(spatial, dr)


def test_combined_projection_distances_of_rationals_are_exact():
    value = combine_projection_distances(1, 2, 3, 4, 5)
    assert value == Fraction(-2, 5) and type(value) is Fraction


@pytest.mark.parametrize("args", [
    (1, 2, 3, 4, math.nan),
    (math.inf, 0, 0, 0, 1),
    (1e200, 0, 0, 0, 1e-200),  # the exact result -5e599 is beyond the float range
])
def test_combined_projection_distances_refuse_what_floats_cannot_hold(args):
    with pytest.raises(FloatRangeError):
        combine_projection_distances(*args)


def test_combined_projection_distances_refuse_a_non_number():
    with pytest.raises(InvalidArgumentError):
        combine_projection_distances(None, 0, 0, 0, 1)


@settings(max_examples=300)
@given(FLOATS, FLOATS, FLOATS, FLOATS, FLOATS.filter(bool))
def test_combined_projection_distances_are_rounded_once(xp, xq, yp, yq, pq):
    xp_, xq_, yp_, yq_, pq_ = map(Fraction, (xp, xq, yp, yq, pq))
    exact = ((yp_ * yp_ - yq_ * yq_) - (xp_ * xp_ - xq_ * xq_)) / (2 * abs(pq_))
    _assert_rounded_once(lambda: combine_projection_distances(xp, xq, yp, yq, pq), exact)

"""The float rule of interval pairs and space-time coordinates.

A float component stands for the exact rational it equals. Every function
that does arithmetic on components computes exactly and rounds each result
once; a result outside the normal float range, and an infinite or NaN
component anywhere it is accepted, raise FloatRangeError.
"""
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from eventposet import (
    FloatRangeError,
    GeneralizedInterval,
    IntervalKind,
    IntervalPair,
    PairTransform,
    SpacetimeCoords,
    apply_pair_transform,
    chain_poset,
    classify_interval,
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

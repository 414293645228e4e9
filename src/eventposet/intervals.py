"""Generalized intervals and their pair quantification.

An interval is just an ordered pair of events; the endpoints need not be
comparable. Relative to chains it is quantified by an interval pair, two
closed-interval lengths obtained from projections. Pairs carry a basis
tag (which quantification produced them) so that cross-basis arithmetic
is rejected rather than silently wrong: componentwise addition only holds
within one subspace.

Components are exact rationals, or finite floats (1e-12 contract)
downstream of an irrational root. A float stands for the exact rational it
equals: each function that does arithmetic on components computes exactly
and rounds each result once, raising FloatRangeError outside the normal
float range. An infinite or NaN component is refused when a pair is built.
"""
from __future__ import annotations

import math
import sys
from decimal import Decimal
from enum import Enum
from fractions import Fraction

from .chains import (
    IndexRange,
    ValuedChain,
    _as_tuple,
    _check_type,
    _checked_window,
    _Record,
    _set,
    as_fraction,
)
from .errors import (
    BasisMismatchError,
    FloatRangeError,
    InvalidArgumentError,
    NoSharedEndpointError,
    OutOfRangeError,
    SideUnknownError,
)
from .poset import EventId
from .projection import forward_project, quantify_event
from .structure import Betweenness, _require_between, _require_coordinated


class PairBasis(Enum):
    ONE_CHAIN_SAME_SIDE = "one-chain-same-side"
    ONE_CHAIN_STRADDLE = "one-chain-straddle"
    TWO_CHAIN = "two-chain"


class IntervalKind(Enum):
    CHAIN_LIKE = "chain-like"
    ANTICHAIN_LIKE = "antichain-like"
    PROJECTION_LIKE = "projection-like"


class GeneralizedInterval(_Record):
    __slots__ = _fields = ("a", "b")

    def __init__(self, a: EventId, b: EventId):
        _set(self, "a", a)
        _set(self, "b", b)


def _component(value) -> Fraction | float:
    """A finite float as it is; anything else, inf and NaN too, through as_fraction."""
    if isinstance(value, float) and math.isfinite(value):
        return value
    return as_fraction(value)


def _out_of_range(value: Fraction | float) -> FloatRangeError:
    if isinstance(value, Fraction):
        value = Decimal(value.numerator) / value.denominator
    return FloatRangeError(f"inexact result {Decimal(value):.6e} is outside the float range")


def _to_float(value: Fraction | float) -> float:
    """``value`` rounded to a float; FloatRangeError unless zero or normal."""
    try:
        result = float(value)
    except OverflowError:
        result = math.inf
    if value and not sys.float_info.min <= abs(result) < math.inf:
        raise _out_of_range(value)
    return result


def _exact(*values: Fraction | float) -> tuple[tuple[Fraction, ...], bool]:
    """``values`` with each float read as the rational it equals, and
    whether any was a float."""
    for v in values:
        if isinstance(v, float):
            return tuple(Fraction(v) if isinstance(v, float) else v for v in values), True
    return values, False


def _rounded(value: Fraction, inexact: bool) -> Fraction | float:
    """``value`` rounded once by :func:`_to_float` if it came from a float."""
    return _to_float(value) if inexact else value


class IntervalPair(_Record):
    """Two-component quantification of an interval.

    Components are exact rationals except downstream of an inexact pair
    transform, where they may be floats. ``basis`` is a PairBasis; ``chains``
    holds the quantifying ValuedChains (or str labels), when known, as a tuple.
    They are compared as chains, not by name.
    """

    __slots__ = _fields = ("first", "second", "basis", "chains")

    def __init__(
        self,
        first: Fraction | float,
        second: Fraction | float,
        basis: PairBasis = PairBasis.TWO_CHAIN,
        chains: tuple[ValuedChain | str, ...] = (),
    ):
        _set(self, "first", _component(first))
        _set(self, "second", _component(second))
        _check_type(basis, PairBasis, "the basis of an interval pair")
        if chains != ():
            chains = _as_tuple(chains, "interval pair chains")
            if not all(isinstance(c, (ValuedChain, str)) for c in chains):
                kinds = [type(c).__name__ for c in chains]
                raise InvalidArgumentError(
                    f"interval pair chains must be ValuedChains or strs, not {kinds}"
                )
        _set(self, "basis", basis)
        _set(self, "chains", chains)

    @property
    def is_symmetric(self) -> bool:
        return self.first == self.second

    @property
    def is_antisymmetric(self) -> bool:
        return self.first == -self.second

    def __str__(self) -> str:
        return f"({self.first}, {self.second})"


class IntervalClassification(_Record):
    __slots__ = _fields = ("kind", "pure")

    def __init__(self, kind: IntervalKind, pure: bool):
        _set(self, "kind", kind)
        _set(self, "pure", pure)


def pair(first, second) -> IntervalPair:
    """Bare two-chain pair, for transform-level arithmetic and tests."""
    return IntervalPair(first, second)


def _on_p_side(side: Betweenness) -> bool:
    if not isinstance(side, Betweenness):
        raise InvalidArgumentError(f"endpoint side {side!r} is not a Betweenness")
    if side is Betweenness.NONE:
        raise SideUnknownError("endpoint side relative to the chain is unknown")
    return side is Betweenness.P_SIDE


def interval_pair_one_chain(
    interval: GeneralizedInterval,
    p: ValuedChain,
    side_a: Betweenness,
    side_b: Betweenness,
) -> IntervalPair:
    """Quantify by a single chain, given each endpoint's side.

    Sides are betweenness values relative to (P, partner): P_SIDE means
    the endpoint sits beyond P, BETWEEN and Q_SIDE on the partner side.
    NONE raises SideUnknownError, and a value that is not a Betweenness
    InvalidArgumentError. With both endpoints on one side the pair is
    (forward length, backward length); with the chain straddled the
    projections cross over.
    """
    _check_type(interval, GeneralizedInterval, "the interval to quantify")
    fa, ba = quantify_event(interval.a, p)
    fb, bb = quantify_event(interval.b, p)
    straddles = _on_p_side(side_a) != _on_p_side(side_b)
    if straddles:
        return IntervalPair(
            fb - ba, bb - fa, PairBasis.ONE_CHAIN_STRADDLE, (p,)
        )
    return IntervalPair(
        fb - fa, bb - ba, PairBasis.ONE_CHAIN_SAME_SIDE, (p,)
    )


def _two_chain_images(
    interval: GeneralizedInterval, p: ValuedChain, q: ValuedChain
) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Valuations ``(pa, pb, qa, qb)`` of the endpoints' forward images.

    The chains must be coordinated and the endpoints between them, which
    gives each endpoint its projections onto both chains.
    """
    _check_type(interval, GeneralizedInterval, "the interval to quantify")
    a, b = interval.a, interval.b
    _require_coordinated(p, q, None, None)
    # Both ids are checked before either endpoint's side is read.
    p.poset.check_id(a)
    p.poset.check_id(b)
    _require_between(a, p, q)
    _require_between(b, p, q)
    return tuple(
        vc.value_of(forward_project(x, vc.chain)) for vc in (p, q) for x in (a, b)
    )


def interval_pair_two_chains(
    interval: GeneralizedInterval, p: ValuedChain, q: ValuedChain
) -> IntervalPair:
    """Quantify by forward projections onto two coordinated chains.

    Raises NotCoordinatedError unless the chains are coordinated, and for
    an endpoint that is not between them what ``structure._require_between``
    raises: MissingProjectionError (a NotQuantifiableError) when one of its
    four projections is missing, NotBetweenError when its case places it
    elsewhere.
    """
    pa, pb, qa, qb = _two_chain_images(interval, p, q)
    return IntervalPair(pb - pa, qb - qa, PairBasis.TWO_CHAIN, (p, q))


def _half_sum_and_difference(p: IntervalPair) -> tuple[Fraction, Fraction, bool]:
    """The exact ``(first + second)/2`` and ``(first - second)/2`` of ``p``,
    and whether a component is a float.

    The one place that computes them: from the components' integer ratios,
    so each half is a single normalized Fraction. A caller rounds, by
    :func:`_rounded`, only the halves it returns.
    """
    _check_type(p, IntervalPair, "an interval pair")
    first, second = p.first, p.second
    n1, d1 = first.as_integer_ratio()
    n2, d2 = second.as_integer_ratio()
    a, b, den = n1 * d2, n2 * d1, 2 * d1 * d2
    inexact = isinstance(first, float) or isinstance(second, float)
    return Fraction(a + b, den), Fraction(a - b, den), inexact


def length_of_pair(p: IntervalPair) -> Fraction | float:
    """Chain-like extent: the mean of the components."""
    mean, _, inexact = _half_sum_and_difference(p)
    return _rounded(mean, inexact)


def distance_of_pair(p: IntervalPair) -> Fraction | float:
    """Antichain-like extent: half the component difference."""
    _, half_diff, inexact = _half_sum_and_difference(p)
    return _rounded(half_diff, inexact)


def chain_distance(
    p: ValuedChain,
    q: ValuedChain,
    p_event: EventId,
    q_event: EventId,
    p_range: IndexRange | None = None,
    q_range: IndexRange | None = None,
) -> Fraction:
    """Distance between coordinated chains from one element of each.

    Computed as ((p - Pq) - (Qp - q)) / 2 in valuations. Coordination,
    checked over the given index ranges (whole chains by default), makes
    the result independent of which elements are chosen; it is symmetric
    in the chain pair and zero only for chains at no separation. Elements
    outside their window are refused with OutOfRangeError, as are windows
    that are not index ranges of their chains.
    """
    _require_coordinated(p, q, p_range, q_range)
    p_range, q_range = _checked_window(p, p_range), _checked_window(q, q_range)
    for vc, event, (lo, hi) in ((p, p_event, p_range), (q, q_event, q_range)):
        index = vc.index_of(event)
        if index is None:
            raise OutOfRangeError(f"event {event} is not on chain {vc.name!r}")
        if not lo <= index <= hi:
            raise OutOfRangeError(
                f"event {event} lies outside the window ({lo}, {hi}) of "
                f"chain {vc.name!r}"
            )
    p_image = forward_project(q_event, p.chain)
    q_image = forward_project(p_event, q.chain)
    if p_image is None or q_image is None:
        raise OutOfRangeError(
            f"events {p_event}, {q_event} do not mutually project within "
            "the coordinated range"
        )
    delta_p = p.value_of(p_event) - p.value_of(p_image)
    delta_q = q.value_of(q_image) - q.value_of(q_event)
    return distance_of_pair(pair(delta_p, delta_q))


def decompose(p: IntervalPair) -> tuple[IntervalPair, IntervalPair]:
    """Split into symmetric plus antisymmetric parts; for a rational pair
    they re-add exactly."""
    mean, half_diff, inexact = _half_sum_and_difference(p)
    mean, half_diff = _rounded(mean, inexact), _rounded(half_diff, inexact)
    symmetric = IntervalPair(mean, mean, p.basis, p.chains)
    antisymmetric = IntervalPair(half_diff, -half_diff, p.basis, p.chains)
    return symmetric, antisymmetric


def _kind_of_scalar(scalar: Fraction | float) -> IntervalKind:
    """Sign test of the scalar ``first * second``: positive is chain-like,
    negative antichain-like, zero projection-like."""
    if scalar > 0:
        return IntervalKind.CHAIN_LIKE
    if scalar < 0:
        return IntervalKind.ANTICHAIN_LIKE
    return IntervalKind.PROJECTION_LIKE


def classify_interval(p: IntervalPair) -> IntervalClassification:
    """Like signs are chain-like, opposite antichain-like, a zero component
    projection-like, read on the exact values. Pure means equal magnitudes;
    the (0, 0) pair counts as pure projection-like."""
    _check_type(p, IntervalPair, "an interval pair")
    (first, second), _ = _exact(p.first, p.second)
    return IntervalClassification(
        _kind_of_scalar(first * second), abs(first) == abs(second)
    )


def _chain_names(p: IntervalPair) -> tuple[str, ...]:
    # A chain tag given as a bare label prints as itself.
    return tuple(getattr(c, "name", c) for c in p.chains)


def join_intervals(
    first: GeneralizedInterval,
    first_pair: IntervalPair,
    second: GeneralizedInterval,
    second_pair: IntervalPair,
) -> tuple[GeneralizedInterval, IntervalPair]:
    """Join [a,b] and [b,c]; pairs in one basis add componentwise.

    Pairs quantified against different chains or bases describe distinct
    subspaces and do not add; such joins are refused.
    """
    _check_type(first, GeneralizedInterval, "the first interval")
    _check_type(first_pair, IntervalPair, "the first interval pair")
    _check_type(second, GeneralizedInterval, "the second interval")
    _check_type(second_pair, IntervalPair, "the second interval pair")
    if first.b != second.a:
        raise NoSharedEndpointError(
            f"intervals [{first.a}, {first.b}] and [{second.a}, {second.b}] "
            "do not share the middle endpoint"
        )
    if first_pair.basis is not second_pair.basis or first_pair.chains != second_pair.chains:
        raise BasisMismatchError(
            f"cannot add pairs quantified in bases {first_pair.basis.value} "
            f"{_chain_names(first_pair)} and {second_pair.basis.value} "
            f"{_chain_names(second_pair)}"
        )
    joined = GeneralizedInterval(first.a, second.b)
    (a1, b1), first_inexact = _exact(first_pair.first, second_pair.first)
    (a2, b2), second_inexact = _exact(first_pair.second, second_pair.second)
    summed = IntervalPair(
        _rounded(a1 + b1, first_inexact),
        _rounded(a2 + b2, second_inexact),
        first_pair.basis,
        first_pair.chains,
    )
    return joined, summed


def split_at_artificial_event(
    interval: GeneralizedInterval, p: ValuedChain, q: ValuedChain
) -> tuple[Fraction, Fraction]:
    """Projections (p0, q0) of the artificial event splitting the interval.

    The event is defined so that [a, 0] is quantified by an antisymmetric
    pair and [0, b] by a symmetric one; together they realize the
    symmetric-antisymmetric decomposition as an actual join. So it sits
    the antisymmetric part (d, -d) of the pair away from a.
    """
    pa, pb, qa, qb = _two_chain_images(interval, p, q)
    d = distance_of_pair(pair(pb - pa, qb - qa))
    return pa + d, qa - d

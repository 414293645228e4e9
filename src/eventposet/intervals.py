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
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum
from fractions import Fraction

from .chains import ValuedChain, _cached_per_partner, as_fraction
from .errors import (
    BasisMismatchError,
    FloatRangeError,
    MissingProjectionError,
    NoSharedEndpointError,
    NotBetweenError,
    NotCompatibleError,
    NotCoordinatedError,
    OutOfRangeError,
    SideUnknownError,
)
from .poset import EventId
from .projection import forward_project, quantify_event
from .structure import (
    Betweenness,
    IndexRange,
    _checked_window,
    _collinearity_table,
    _direction_maps,
    _length_witness,
    _side,
    check_coordinated,
)


class PairBasis(Enum):
    ONE_CHAIN_SAME_SIDE = "one-chain-same-side"
    ONE_CHAIN_STRADDLE = "one-chain-straddle"
    TWO_CHAIN = "two-chain"


class IntervalKind(Enum):
    CHAIN_LIKE = "chain-like"
    ANTICHAIN_LIKE = "antichain-like"
    PROJECTION_LIKE = "projection-like"


@dataclass(frozen=True)
class GeneralizedInterval:
    a: EventId
    b: EventId


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


@dataclass(frozen=True)
class IntervalPair:
    """Two-component quantification of an interval.

    Components are exact rationals except downstream of an inexact pair
    transform, where they may be floats. ``chains`` holds the quantifying
    chain(s), when known; they are compared as chains, not by name.
    """

    first: Fraction | float
    second: Fraction | float
    basis: PairBasis = PairBasis.TWO_CHAIN
    chains: tuple[ValuedChain, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "first", _component(self.first))
        object.__setattr__(self, "second", _component(self.second))

    @property
    def is_symmetric(self) -> bool:
        return self.first == self.second

    @property
    def is_antisymmetric(self) -> bool:
        return self.first == -self.second

    def __str__(self) -> str:
        return f"({self.first}, {self.second})"


@dataclass(frozen=True)
class IntervalClassification:
    kind: IntervalKind
    pure: bool


def pair(first, second) -> IntervalPair:
    """Bare two-chain pair, for transform-level arithmetic and tests."""
    return IntervalPair(first, second)


def _on_p_side(side: Betweenness) -> bool:
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
    the endpoint sits beyond P, anything else on the partner side. With
    both endpoints on one side the pair is (forward length, backward
    length); with the chain straddled the projections cross over.
    """
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


def _require_coordinated(
    p: ValuedChain, q: ValuedChain, p_range: IndexRange, q_range: IndexRange
) -> None:
    """Raise NotCoordinatedError unless ``p`` and ``q`` are coordinated
    over the (checked) windows.

    The outcome is cached on ``p`` per partner chain (held weakly) and
    windows, so a pair is proved once.
    """
    refusal = _cached_per_partner(
        p._coordinations,
        q,
        (p_range, q_range),
        lambda: _coordination_refusal(p, q, p_range, q_range),
    )
    if refusal is not None:
        raise NotCoordinatedError(refusal)


def _coordination_refusal(
    p: ValuedChain, q: ValuedChain, p_range: IndexRange, q_range: IndexRange
) -> str | None:
    """Why the chains are not coordinated over the windows, or None."""
    try:
        if check_coordinated(p, q, p_range, q_range):
            return None
    except (MissingProjectionError, NotCompatibleError) as exc:
        return f"chains {p.name!r} and {q.name!r}: {exc}"
    # Only a refused pair, once per cache key, builds the maps again to
    # name the step that broke.
    witness = _length_witness(_direction_maps(p, q, p_range, q_range))
    return (
        f"chains {p.name!r} and {q.name!r} do not preserve projected "
        f"interval lengths: {witness}"
    )


def _require_between(x: EventId, p: ValuedChain, q: ValuedChain) -> None:
    # Enforced when decidable: the full case test needs projections that
    # finite windows may cut off even for elements that sit between the
    # chains, so an endpoint with a missing projection is trusted to the
    # caller. One that matches no case, or another side's, is refused.
    p.poset.check_id(x)
    side = _side(_collinearity_table(p.chain, q.chain)[x])
    if side is not None and side is not Betweenness.BETWEEN:
        raise NotBetweenError(
            f"endpoint {x} is not between chains {p.name!r} and {q.name!r}"
        )


def _two_chain_images(
    interval: GeneralizedInterval, p: ValuedChain, q: ValuedChain
) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Valuations ``(pa, pb, qa, qb)`` of the endpoints' forward images.

    The chains must be coordinated and the endpoints between them.
    """
    _require_coordinated(p, q, _checked_window(p, None), _checked_window(q, None))
    _require_between(interval.a, p, q)
    _require_between(interval.b, p, q)
    values = []
    for vc in (p, q):
        for x in (interval.a, interval.b):
            image = forward_project(x, vc.chain)
            if image is None:
                raise MissingProjectionError(
                    f"endpoint {x} does not forward project onto {vc.name!r}"
                )
            values.append(vc.value_of(image))
    return tuple(values)


def interval_pair_two_chains(
    interval: GeneralizedInterval, p: ValuedChain, q: ValuedChain
) -> IntervalPair:
    """Quantify by forward projections onto two coordinated chains."""
    pa, pb, qa, qb = _two_chain_images(interval, p, q)
    return IntervalPair(pb - pa, qb - qa, PairBasis.TWO_CHAIN, (p, q))


def length_of_pair(p: IntervalPair) -> Fraction | float:
    """Chain-like extent: the mean of the components."""
    (first, second), inexact = _exact(p.first, p.second)
    return _rounded((first + second) / 2, inexact)


def distance_of_pair(p: IntervalPair) -> Fraction | float:
    """Antichain-like extent: half the component difference."""
    (first, second), inexact = _exact(p.first, p.second)
    return _rounded((first - second) / 2, inexact)


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
    p_range, q_range = _checked_window(p, p_range), _checked_window(q, q_range)
    _require_coordinated(p, q, p_range, q_range)
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
    mean = length_of_pair(p)
    half_diff = distance_of_pair(p)
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

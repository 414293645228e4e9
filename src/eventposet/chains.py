"""Chains, isotonic valuations, and closed intervals along a chain.

A chain models an observer: a totally ordered run of events. Values are
exact rationals so every identity downstream (lengths, pairs, scalars)
holds exactly; equal consecutive values are allowed (coarse graining).
The arbitrary endpoint function of the interval-length solution is fixed
to the identity, so the length of a closed interval is the difference of
its endpoint values and is additive under joins.
"""
from __future__ import annotations

import re
import weakref
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from numbers import Rational
from typing import Callable, Sequence, TypeVar

from .errors import (
    DifferentChainsError,
    FloatRangeError,
    FormatError,
    NotAChainError,
    NotAdjacentError,
    NotIsotonicError,
)
from .poset import EventId, Poset

RationalLike = Rational | int | str
_T = TypeVar("_T")


def as_fraction(value: RationalLike) -> Fraction:
    """Normalize ints, strings like ``3/2`` (read by :func:`_parse_rational`),
    rationals and finite floats to Fraction; FloatRangeError names an
    infinite or NaN float as Decimal spells it."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        return _parse_rational(value)
    try:
        return Fraction(value)
    except (OverflowError, ValueError):
        raise FloatRangeError(f"{Decimal(value)} is not a finite number") from None


# The grammar of ``Fraction(str)`` as of Python 3.11: a sign, then an
# integer fraction such as ``-3/2`` or a decimal such as ``0.5``, ``.5`` or
# ``1e-3``. ``match`` tests a whole token.
_DIGITS = r"\d+(?:_\d+)*"
_RATIONAL_TOKEN = re.compile(
    rf"\s*[-+]?(?=\.?\d)(?:{_DIGITS})?"
    rf"(?:/{_DIGITS}|(?:\.(?:{_DIGITS})?)?(?:[eE](?P<exponent>[-+]?{_DIGITS}))?)"
    r"\s*\Z"
)

# Bounds on a rational token: beyond them ``Fraction`` takes time that grows
# with the exponent (seconds at 1e10000000). Within them a value, and the
# product of two, stays under Python's 4300-digit int-to-str limit.
_MAX_DIGITS = 1000
_MAX_EXPONENT = 1000


def _parse_rational(token: str) -> Fraction:
    """The rational ``token`` spells, read as ``Fraction(token)`` reads it.

    Raises FormatError naming the token when it is not a rational, has more
    than ``_MAX_DIGITS`` digits, or an exponent beyond ``_MAX_EXPONENT``.
    """
    match = _RATIONAL_TOKEN.match(token)
    if match is None:
        raise FormatError(f"{token!r} is not a rational")
    if sum(c.isdigit() for c in token) > _MAX_DIGITS:
        raise FormatError(f"{token!r} has more than {_MAX_DIGITS} digits")
    if abs(int(match["exponent"] or 0)) > _MAX_EXPONENT:
        raise FormatError(
            f"{token!r} has an exponent beyond {_MAX_EXPONENT} in magnitude"
        )
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise FormatError(f"{token!r} is not a rational") from None


def _cached_per_partner(
    cache: dict, partner: object, key: tuple, compute: Callable[[], _T]
) -> _T:
    """``compute()``, cached in ``cache`` per partner object and ``key``.

    The entry refers to ``partner`` weakly: it does not keep the partner
    alive, it goes when the partner does, and a reused id cannot match it.
    An entry is stored in one assignment once computed, so a race on a
    first computation computes the same outcome twice.
    """
    full_key = (id(partner), *key)
    entry = cache.get(full_key)
    if entry is None or entry[0]() is not partner:
        ref = weakref.ref(partner, lambda _: cache.pop(full_key, None))
        entry = (ref, compute())
        cache[full_key] = entry
    return entry[1]


@dataclass(frozen=True)
class Chain:
    """Strictly increasing, non-empty run of events in a poset.

    The private fields are caches: the position of each element, the
    projection table that :mod:`eventposet.projection` builds on first use,
    and the collinearity table against each partner chain that
    :mod:`eventposet.structure` builds on first use. They take no part in
    equality, hashing or ``repr``, and copies and pickles start without
    collinearity tables.
    """

    poset: Poset
    elements: tuple[EventId, ...]
    name: str = ""
    _positions: dict[EventId, int] = field(init=False, compare=False, repr=False)
    _projections: object = field(default=None, init=False, compare=False, repr=False)
    _collinearities: dict = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def __post_init__(self):
        if not self.elements:
            raise NotAChainError("a chain needs at least one element")
        object.__setattr__(self, "elements", tuple(self.elements))
        for event in self.elements:
            self.poset.check_id(event)
        for i in range(len(self.elements) - 1):
            a, b = self.elements[i], self.elements[i + 1]
            if a == b or not self.poset.leq(a, b):
                raise NotAChainError(
                    f"elements {a} and {b} at positions {i},{i + 1} are not "
                    "strictly increasing"
                )
        positions = {event: i for i, event in enumerate(self.elements)}
        object.__setattr__(self, "_positions", positions)

    def __getstate__(self):
        # The cache refers to partners weakly, which cannot be pickled.
        return {**self.__dict__, "_collinearities": {}}

    def __len__(self) -> int:
        return len(self.elements)

    def index_of(self, event: EventId) -> int | None:
        """Position of ``event`` on the chain, or None off it."""
        try:
            return self._positions.get(event)
        except TypeError:  # unhashable, so not an element
            return None

    def subchain(self, lo: int, hi: int, name: str = "") -> "Chain":
        """Elements at positions ``lo..hi`` inclusive."""
        return Chain(self.poset, self.elements[lo : hi + 1], name or self.name)


@dataclass(frozen=True)
class ValuedChain:
    """A chain together with an isotonic rational valuation.

    The private field caches coordination outcomes against partner chains
    (see :func:`eventposet.intervals._require_coordinated`). It takes no
    part in equality, hashing or ``repr``, and copies and pickles start
    with an empty cache.
    """

    chain: Chain
    values: tuple[Fraction, ...]
    _coordinations: dict = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def __post_init__(self):
        values = tuple(as_fraction(v) for v in self.values)
        object.__setattr__(self, "values", values)
        if len(values) != len(self.chain):
            raise NotIsotonicError(
                f"{len(values)} values for {len(self.chain)} chain elements"
            )
        for i in range(len(values) - 1):
            if values[i] > values[i + 1]:
                raise NotIsotonicError(
                    f"values {values[i]} > {values[i + 1]} at positions {i},{i + 1}"
                )

    def __getstate__(self):
        # The cache refers to partners weakly, which cannot be pickled.
        return {**self.__dict__, "_coordinations": {}}

    @property
    def poset(self) -> Poset:
        return self.chain.poset

    @property
    def elements(self) -> tuple[EventId, ...]:
        return self.chain.elements

    @property
    def name(self) -> str:
        return self.chain.name

    def __len__(self) -> int:
        return len(self.values)

    def index_of(self, event: EventId) -> int | None:
        return self.chain.index_of(event)

    def value_of(self, event: EventId) -> Fraction:
        index = self.chain.index_of(event)
        if index is None:
            raise DifferentChainsError(f"event {event} is not on chain {self.name!r}")
        return self.values[index]

    def subchain(self, lo: int, hi: int, name: str = "") -> "ValuedChain":
        return ValuedChain(self.chain.subchain(lo, hi, name), self.values[lo : hi + 1])

    def revalued(self, values: Sequence[RationalLike]) -> "ValuedChain":
        """Same elements under a different valuation."""
        return ValuedChain(self.chain, tuple(as_fraction(v) for v in values))


def make_valued_chain(
    poset: Poset,
    elements: Sequence[EventId],
    values: Sequence[RationalLike],
    name: str = "",
) -> ValuedChain:
    """Validate and assemble a valued chain.

    Raises NotAChainError if consecutive elements are out of order or
    incomparable, NotIsotonicError if the values ever decrease.
    """
    return ValuedChain(Chain(poset, tuple(elements), name), tuple(values))


@dataclass(frozen=True)
class ClosedInterval:
    """Indices ``lo..hi`` into a valued chain, endpoints included."""

    valued_chain: ValuedChain
    lo_index: int
    hi_index: int

    def __post_init__(self):
        n = len(self.valued_chain)
        if not 0 <= self.lo_index <= self.hi_index < n:
            raise ValueError(
                f"interval indices ({self.lo_index}, {self.hi_index}) invalid "
                f"for a chain of length {n}"
            )


def interval_length(interval: ClosedInterval) -> Fraction:
    """Difference of the endpoint values."""
    vc = interval.valued_chain
    return vc.values[interval.hi_index] - vc.values[interval.lo_index]


def join_closed_intervals(first: ClosedInterval, second: ClosedInterval) -> ClosedInterval:
    """Join intervals sharing one endpoint; lengths add exactly.

    ``first`` must end where ``second`` starts, on the same valued chain.
    """
    if first.valued_chain is not second.valued_chain:
        raise DifferentChainsError("closed intervals live on different chains")
    if first.hi_index != second.lo_index:
        raise NotAdjacentError(
            f"intervals do not share a single endpoint: "
            f"{first.hi_index} != {second.lo_index}"
        )
    return ClosedInterval(first.valued_chain, first.lo_index, second.hi_index)

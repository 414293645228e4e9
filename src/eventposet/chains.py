"""Chains, isotonic valuations, and closed intervals along a chain.

A chain models an observer: a totally ordered run of events. Values are
exact rationals so every identity downstream (lengths, pairs, scalars)
holds exactly; equal consecutive values are allowed (coarse graining).
The arbitrary endpoint function of the interval-length solution is fixed
to the identity, so the length of a closed interval is the difference of
its endpoint values and is additive under joins. This module owns the
one rule for an index range ``(lo, hi)`` of a chain
(``_check_index_range``): windows, subchains and closed intervals all use it.
It also owns the rules that two chains compared with each other live on one
poset (``_check_same_poset``), and named chains on theirs (``_checked_chains``).
Every value class of the package is an immutable ``_Record``, defined here.
"""
from __future__ import annotations

import re
import weakref
from collections.abc import Iterable, Mapping
from decimal import Decimal
from fractions import Fraction
from numbers import Rational
from operator import attrgetter
from typing import Callable, Sequence, TypeVar

from .errors import (
    DifferentChainsError,
    FloatRangeError,
    FormatError,
    FrozenRecordError,
    InvalidArgumentError,
    NotAChainError,
    NotAdjacentError,
    NotIsotonicError,
    OutOfRangeError,
)
from .poset import EventId, Poset, _is_index

RationalLike = Rational | int | str
IndexRange = tuple[int, int]
_T = TypeVar("_T")
_set = object.__setattr__


class _Record:
    """Base of the package's immutable value classes.

    A subclass names its fields in ``_fields``, in constructor order, and
    sets them in ``__init__`` with ``_set``; it keeps them in ``__slots__``,
    or, for a record with caches, in its ``__dict__``. Records are equal
    when they are of one class and their ``_compared`` fields (by default
    all of ``_fields``) are equal, and hash on those fields; ``repr`` shows
    every field. Assigning or deleting an attribute raises
    FrozenRecordError; copies and pickles carry the state that
    ``__getstate__`` returns, the slots or the ``__dict__`` of a record.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _compared: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._key = attrgetter(*(cls._compared or cls._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenRecordError(f"cannot delete field {name!r}")

    def __getstate__(self):
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state):
        for name, value in state.items():
            _set(self, name, value)


def as_fraction(value: RationalLike) -> Fraction:
    """Normalize ints, strings like ``3/2`` (read by :func:`_parse_rational`),
    rationals and finite floats to Fraction; FloatRangeError names an
    infinite or NaN float as Decimal spells it, and InvalidArgumentError
    names a value of any other type."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        return _parse_rational(value)
    try:
        return Fraction(value)
    except (OverflowError, ValueError):
        raise FloatRangeError(f"{Decimal(value)} is not a finite number") from None
    except TypeError:
        raise InvalidArgumentError(f"{value!r} is neither a real number nor a string") from None


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


def _as_tuple(items, what: str) -> tuple:
    """``items`` as a tuple; InvalidArgumentError names ``what`` unless it
    is iterable."""
    try:
        return tuple(items)
    except TypeError:
        raise InvalidArgumentError(f"{what} {items!r} are not iterable") from None


def _check_type(value, kind: type, what: str) -> None:
    """InvalidArgumentError naming ``what`` unless ``value`` is a ``kind``.

    The one refusal rule for object arguments: the first function on a
    call's path that reads an object argument checks it with this call
    before any other read, so a wrong type never ends in an AttributeError.
    """
    if not isinstance(value, kind):
        article = "an" if kind.__name__[0] in "AEIOU" else "a"
        raise InvalidArgumentError(
            f"{what} must be {article} {kind.__name__}, not {type(value).__name__}"
        )


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
        value = compute()
        entry = (weakref.ref(partner, lambda _: cache.pop(full_key, None)), value)
        cache[full_key] = entry
    return entry[1]


def _checked_window(chain: Chain | ValuedChain, window) -> IndexRange:
    """``window`` as an ``(lo, hi)`` tuple of ints; None is the whole chain."""
    if window is None:
        return (0, len(chain) - 1)
    try:
        lo, hi = window
    except (TypeError, ValueError):
        lo = hi = None
    _check_index_range(chain, lo, hi, window)
    return (lo, hi)


def _check_index_range(chain: Chain | ValuedChain, lo: int, hi: int, window=None) -> None:
    """The one index-range rule, for windows, subchains and closed intervals.

    Raises OutOfRangeError, naming ``window`` (by default ``(lo, hi)``) and
    the chain, unless ``lo <= hi`` are indices of the chain by
    :func:`~eventposet.poset._is_index`.
    """
    if not (_is_index(lo, len(chain)) and _is_index(hi, len(chain)) and lo <= hi):
        raise OutOfRangeError(
            f"window {(lo, hi) if window is None else window!r} is not an index "
            f"range (lo, hi) with 0 <= lo <= hi < {len(chain)} on chain {chain.name!r}"
        )


def _check_same_poset(a: Chain, b: Chain) -> None:
    _check_type(a, Chain, "a chain compared with another")
    _check_type(b, Chain, "a chain compared with another")
    if a.poset is not b.poset:
        raise DifferentChainsError(
            f"chains {a.name!r} and {b.name!r} live on different posets"
        )


def _checked_chains(chains, poset: Poset) -> Mapping[str, ValuedChain]:
    """``chains`` if it maps str names to ValuedChains on ``poset``; {} for None.
    InvalidArgumentError for anything else, DifferentChainsError for another poset."""
    if chains is None:
        return {}
    _check_type(chains, Mapping, "a chain mapping")
    for name, vc in chains.items():
        _check_type(name, str, "a chain name")
        _check_type(vc, ValuedChain, f"chain {name!r}")
        if vc.poset is not poset:
            raise DifferentChainsError(f"chain {name!r} lives on another poset")
    return chains


class Chain(_Record):
    """Strictly increasing, non-empty run of events in a poset.

    ``elements`` may be any iterable; it is kept as a tuple. None or no
    elements raise NotAChainError, and a value that is not iterable
    InvalidArgumentError, as do a ``poset`` that is not a Poset and a
    ``name`` that is not a str.

    A chain keeps a ``__dict__`` for its private caches: the position of
    each element, the projection table that :mod:`eventposet.projection`
    builds on first use, and the collinearity table against each partner
    chain that :mod:`eventposet.structure` builds on first use. They take
    no part in equality, hashing or ``repr``, and copies and pickles start
    without collinearity tables.
    """

    _fields = ("poset", "elements", "name")

    def __init__(self, poset: Poset, elements: Iterable[EventId], name: str = ""):
        self.__dict__.update(poset=poset, elements=elements, name=name)
        self.__post_init__()

    def __post_init__(self):
        # Checks and normalizes the fields. ``perfbench/tracer.py`` wraps
        # this method by name to time chain validation.
        _check_type(self.poset, Poset, "the poset of a chain")
        _check_type(self.name, str, "the name of a chain")
        elements = _as_tuple(() if self.elements is None else self.elements, "chain elements")
        if not elements:
            raise NotAChainError("a chain needs at least one element")
        for event in elements:
            self.poset.check_id(event)
        for i in range(len(elements) - 1):
            a, b = elements[i], elements[i + 1]
            if a == b or not self.poset.leq(a, b):
                raise NotAChainError(
                    f"elements {a} and {b} at positions {i},{i + 1} are not "
                    "strictly increasing"
                )
        self.__dict__.update(
            elements=elements,
            _positions={event: i for i, event in enumerate(elements)},
            _projections=None,
            _collinearities={},
        )

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

    def subchain(self, lo: int, hi: int) -> "Chain":
        """Elements at positions ``lo..hi`` inclusive, an index range of the chain."""
        _check_index_range(self, lo, hi)
        return Chain(self.poset, self.elements[lo : hi + 1], self.name)


class ValuedChain(_Record):
    """A chain together with an isotonic rational valuation.

    ``values`` may be any iterable; each value is read by
    :func:`as_fraction`.

    A valued chain keeps a ``__dict__`` for its private cache of the one
    coordination proof per partner chain and windows (see
    :func:`eventposet.structure._coordination_refusal`), for every check
    of compatibility or coordination. It takes no part in equality,
    hashing or ``repr``, and copies and pickles start with an empty cache.
    """

    _fields = ("chain", "values")

    def __init__(self, chain: Chain, values: Iterable[RationalLike]):
        self.__dict__.update(chain=chain, values=values)
        self.__post_init__()

    def __post_init__(self):
        # Checks and normalizes the fields; timed as Chain.__post_init__ is.
        _check_type(self.chain, Chain, "the chain of a valued chain")
        values = tuple(map(as_fraction, _as_tuple(self.values, "chain values")))
        if len(values) != len(self.chain):
            raise NotIsotonicError(
                f"{len(values)} values for {len(self.chain)} chain elements"
            )
        for i in range(len(values) - 1):
            if values[i] > values[i + 1]:
                raise NotIsotonicError(
                    f"values {values[i]} > {values[i + 1]} at positions {i},{i + 1}"
                )
        self.__dict__.update(values=values, _coordinations={})

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

    def subchain(self, lo: int, hi: int) -> "ValuedChain":
        return ValuedChain(self.chain.subchain(lo, hi), self.values[lo : hi + 1])

    def revalued(self, values: Sequence[RationalLike]) -> "ValuedChain":
        """Same elements under a different valuation."""
        return ValuedChain(self.chain, values)


def make_valued_chain(
    poset: Poset,
    elements: Sequence[EventId],
    values: Sequence[RationalLike],
    name: str = "",
) -> ValuedChain:
    """Validate and assemble a valued chain; the constructors normalize
    ``elements`` and ``values``.

    Raises NotAChainError if consecutive elements are out of order or
    incomparable, NotIsotonicError if the values ever decrease.
    """
    return ValuedChain(Chain(poset, elements, name), values)


class ClosedInterval(_Record):
    """Indices ``lo..hi`` into a valued chain, endpoints included."""

    __slots__ = _fields = ("valued_chain", "lo_index", "hi_index")

    def __init__(self, valued_chain: ValuedChain, lo_index: int, hi_index: int):
        _check_type(valued_chain, ValuedChain, "the valued chain of a closed interval")
        _check_index_range(valued_chain, lo_index, hi_index)
        _set(self, "valued_chain", valued_chain)
        _set(self, "lo_index", lo_index)
        _set(self, "hi_index", hi_index)


def interval_length(interval: ClosedInterval) -> Fraction:
    """Difference of the endpoint values."""
    _check_type(interval, ClosedInterval, "a closed interval")
    vc = interval.valued_chain
    return vc.values[interval.hi_index] - vc.values[interval.lo_index]


def join_closed_intervals(first: ClosedInterval, second: ClosedInterval) -> ClosedInterval:
    """Join intervals sharing one endpoint; lengths add exactly.

    ``first`` must end where ``second`` starts, on the same valued chain.
    """
    _check_type(first, ClosedInterval, "the first closed interval")
    _check_type(second, ClosedInterval, "the second closed interval")
    if first.valued_chain is not second.valued_chain:
        raise DifferentChainsError("closed intervals live on different chains")
    if first.hi_index != second.lo_index:
        raise NotAdjacentError(
            f"intervals do not share a single endpoint: "
            f"{first.hi_index} != {second.lo_index}"
        )
    return ClosedInterval(first.valued_chain, first.lo_index, second.hi_index)

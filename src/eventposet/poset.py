"""Finite partially ordered sets of events with O(1) order queries.

Events carry dense integer ids ``0..N-1``. Influence is a binary relation
that is transitive and antisymmetric, so the set of events forms a poset.
The reflexive-transitive closure is stored as one Python-int bitmask per
event (bit ``y`` of row ``x`` set iff ``x <= y``), which makes ``leq`` a
single bit test and keeps exhaustive sweeps over desk-scale posets cheap.
One depth-first pass over the input relations orders the events, names a
cycle if there is one, and derives both the closure and the cover edges
(the Hasse diagram): the input relations not already implied when their
source finishes.

Posets are immutable after :func:`build_poset`; every downstream structure
(chains, projections, interval quantification) caches against the closure,
so mutation requires a rebuild. A built poset is safe for concurrent reads.
"""
from __future__ import annotations

from enum import Enum
from typing import Iterable, Iterator

from .errors import CycleDetectedError, InvalidArgumentError, InvalidIdError

EventId = int

MAX_EVENTS = 4096

_UNVISITED = -1
_ON_STACK = -2


class Comparability(Enum):
    """Outcome of comparing two events under the poset order."""

    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    INCOMPARABLE = "incomparable"


def _is_index(x: object, bound: int | float) -> bool:
    """The one int rule: a plain int (no bool or IntEnum) with ``0 <= x < bound``."""
    return type(x) is int and 0 <= x < bound


def _iter_bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Poset:
    """Immutable event poset; construct via :func:`build_poset`."""

    __slots__ = ("_count", "_above", "_covers")

    def __init__(
        self,
        count: int,
        above: list[int],
        covers: tuple[tuple[EventId, EventId], ...],
    ):
        self._count = count
        self._above = above
        self._covers = covers

    @property
    def event_count(self) -> int:
        return self._count

    def events(self) -> range:
        return range(self._count)

    def check_id(self, x: EventId) -> None:
        if not _is_index(x, self._count):
            raise InvalidIdError(f"event id {x!r} not in 0..{self._count - 1}")

    def leq(self, x: EventId, y: EventId) -> bool:
        """True iff ``x <= y`` in the closure (reflexive). Both ids pass
        ``_is_index`` before a row is read; ``check_id`` only raises."""
        if not (_is_index(x, self._count) and _is_index(y, self._count)):
            self.check_id(x)
            self.check_id(y)
        return bool((self._above[x] >> y) & 1)

    def comparability(self, x: EventId, y: EventId) -> Comparability:
        """Classify the pair with two closure lookups."""
        xy = self.leq(x, y)
        yx = self.leq(y, x)
        if xy and yx:
            return Comparability.EQUAL
        if xy:
            return Comparability.LESS
        if yx:
            return Comparability.GREATER
        return Comparability.INCOMPARABLE

    def above_bits(self, x: EventId) -> int:
        """Bitmask of all events ``y`` with ``x <= y`` (includes ``x``)."""
        if not _is_index(x, self._count):
            self.check_id(x)
        return self._above[x]

    def cover_edges(self) -> tuple[tuple[EventId, EventId], ...]:
        """Transitive reduction of the order, sorted."""
        return self._covers

    def reverse(self) -> "Poset":
        """The dual poset, built from the flipped cover edges."""
        return build_poset(self._count, [(b, a) for a, b in self._covers])

    def __repr__(self) -> str:
        return f"Poset(events={self._count}, covers={len(self._covers)})"


def _check_event_count(event_count: int) -> None:
    """Raise InvalidArgumentError unless ``event_count`` is an int in ``0..MAX_EVENTS``."""
    if not _is_index(event_count, MAX_EVENTS + 1):
        raise InvalidArgumentError(
            f"event_count {event_count!r} is not an int in 0..{MAX_EVENTS}"
        )


def build_poset(event_count: int, relations: Iterable[tuple[EventId, EventId]]) -> Poset:
    """Build a poset from influence statements ``a -> b`` (a precedes b).

    Redundant and repeated relations are accepted silently. The stored
    cover set is the transitive reduction regardless of how the input was
    phrased. One depth-first pass derives the closure and the covers; a
    relation that reaches an event still on its stack closes a cycle, and
    the stack from that event back to it is the witness.

    Raises:
        InvalidArgumentError: ``event_count`` is not an int in
            ``0..MAX_EVENTS``, or ``relations`` is not an iterable of pairs.
        InvalidIdError: an endpoint is not an int in ``0..event_count-1``.
        CycleDetectedError: the relations order some event before itself;
            the exception names a witness cycle.
    """
    _check_event_count(event_count)

    adjacency: list[list[int]] = [[] for _ in range(event_count)]
    # Nothing in the loop body raises TypeError or ValueError: either comes
    # from iterating ``relations`` or unpacking one, so no relation pays a check.
    try:
        for a, b in relations:
            if not (_is_index(a, event_count) and _is_index(b, event_count)):
                bad = b if _is_index(a, event_count) else a
                raise InvalidIdError(f"event id {bad!r} not in 0..{event_count - 1}")
            if a == b:
                raise CycleDetectedError((a, a))
            adjacency[a].append(b)
    except (TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"relations are not an iterable of pairs: {exc}") from None

    # One depth-first pass. state[v] is _UNVISITED, _ON_STACK, or v's rank:
    # finish numbers count down, so a rank is a topological position. When v
    # finishes, all its successors have ranks; visited by rank, a successor
    # below w is visited before w, so v -> w is a cover exactly when bit w is
    # not yet set. Every cover is an input relation, and a repeated relation
    # finds its bit set.
    state = [_UNVISITED] * event_count
    above = [0] * event_count
    covers: list[tuple[int, int]] = []
    rank = event_count
    for root in range(event_count):
        if state[root] != _UNVISITED:
            continue
        state[root] = _ON_STACK
        path = [root]
        pending = [iter(adjacency[root])]
        while pending:
            for w in pending[-1]:
                if state[w] == _UNVISITED:
                    state[w] = _ON_STACK
                    path.append(w)
                    pending.append(iter(adjacency[w]))
                    break
                if state[w] == _ON_STACK:
                    raise CycleDetectedError(path[path.index(w):] + [w])
            else:
                v = path.pop()
                pending.pop()
                bits = 1 << v
                for w in sorted(adjacency[v], key=state.__getitem__):
                    if not (bits >> w) & 1:
                        covers.append((v, w))
                        bits |= above[w]
                above[v] = bits
                rank -= 1
                state[v] = rank
    covers.sort()
    return Poset(event_count, above, tuple(covers))


def chain_poset(length: int) -> Poset:
    """Total order on ``length`` events, a convenience for tests and demos.

    ``length`` is checked before any relation is built.
    """
    _check_event_count(length)
    return build_poset(length, [(i, i + 1) for i in range(length - 1)])

"""Finite partially ordered sets of events with O(1) order queries.

Events carry dense integer ids ``0..N-1``. Influence is a binary relation
that is transitive and antisymmetric, so the set of events forms a poset.
The reflexive-transitive closure is stored as one Python-int bitmask per
event (bit ``y`` of row ``x`` set iff ``x <= y``), which makes ``leq`` a
single bit test and keeps exhaustive sweeps over desk-scale posets cheap.
The cover edges (the Hasse diagram) are the input relations that the same
pass over the events finds not already implied by the closure.

Posets are immutable after :func:`build_poset`; every downstream structure
(chains, projections, interval quantification) caches against the closure,
so mutation requires a rebuild. A built poset is safe for concurrent reads.
"""
from __future__ import annotations

from collections import deque
from enum import Enum
from typing import Iterable, Iterator

from .errors import CycleDetectedError, InvalidIdError

EventId = int

DEFAULT_MAX_EVENTS = 4096


class Comparability(Enum):
    """Outcome of comparing two events under the poset order."""

    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    INCOMPARABLE = "incomparable"


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
        if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < self._count:
            raise InvalidIdError(f"event id {x!r} not in 0..{self._count - 1}")

    def leq(self, x: EventId, y: EventId) -> bool:
        """True iff ``x <= y`` in the closure (reflexive)."""
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
        self.check_id(x)
        return self._above[x]

    def cover_edges(self) -> tuple[tuple[EventId, EventId], ...]:
        """Transitive reduction of the order, sorted."""
        return self._covers

    def reverse(self) -> "Poset":
        """The dual poset, built from the flipped cover edges."""
        return build_poset(
            self._count, [(b, a) for a, b in self._covers], max_events=self._count
        )

    def __repr__(self) -> str:
        return f"Poset(events={self._count}, covers={len(self._covers)})"


def _find_cycle(adjacency: list[list[int]], candidates: Iterable[int]) -> list[int]:
    """Locate one directed cycle among ``candidates`` (known to exist)."""
    color = {}  # 0 visiting, 1 done
    parent: dict[int, int] = {}
    for start in candidates:
        if start in color:
            continue
        stack = [(start, iter(adjacency[start]))]
        color[start] = 0
        while stack:
            node, successors = stack[-1]
            advanced = False
            for succ in successors:
                if succ not in color:
                    color[succ] = 0
                    parent[succ] = node
                    stack.append((succ, iter(adjacency[succ])))
                    advanced = True
                    break
                if color[succ] == 0:
                    # Found a back edge; walk parents to recover the loop.
                    path = [node]
                    cur = node
                    while cur != succ:
                        cur = parent[cur]
                        path.append(cur)
                    path.reverse()
                    path.append(path[0])
                    return path
            if not advanced:
                color[node] = 1
                stack.pop()
    raise AssertionError("no cycle found among candidate events")


def _check_event_count(event_count: int, max_events: int = DEFAULT_MAX_EVENTS) -> None:
    """Raise ValueError unless ``0 <= event_count <= max_events``."""
    if event_count < 0:
        raise ValueError("event_count must be non-negative")
    if event_count > max_events:
        raise ValueError(
            f"event_count {event_count} exceeds the cap of {max_events} events"
        )


def build_poset(
    event_count: int,
    relations: Iterable[tuple[EventId, EventId]],
    *,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> Poset:
    """Build a poset from influence statements ``a -> b`` (a precedes b).

    Redundant relations (already implied by transitivity) are accepted
    silently. The stored cover set is the transitive reduction regardless
    of how the input was phrased: the input relations that the closure
    pass finds not yet implied.

    Raises:
        InvalidIdError: an endpoint is outside ``0..event_count-1``.
        CycleDetectedError: the relations order some event before itself;
            the exception names a witness cycle.
        ValueError: ``event_count`` is negative or above ``max_events``.
    """
    _check_event_count(event_count, max_events)

    adjacency: list[list[int]] = [[] for _ in range(event_count)]
    seen: set[tuple[int, int]] = set()
    for a, b in relations:
        for end in (a, b):
            if not isinstance(end, int) or isinstance(end, bool) or not 0 <= end < event_count:
                raise InvalidIdError(f"event id {end!r} not in 0..{event_count - 1}")
        if a == b:
            raise CycleDetectedError((a, a))
        if (a, b) not in seen:
            seen.add((a, b))
            adjacency[a].append(b)

    # Kahn topological sort; leftovers witness a cycle.
    indegree = [0] * event_count
    for a, b in seen:
        indegree[b] += 1
    ready = deque(v for v in range(event_count) if indegree[v] == 0)
    topo: list[int] = []
    while ready:
        v = ready.popleft()
        topo.append(v)
        for w in adjacency[v]:
            indegree[w] -= 1
            if indegree[w] == 0:
                ready.append(w)
    if len(topo) < event_count:
        leftover = [v for v in range(event_count) if indegree[v] > 0]
        raise CycleDetectedError(_find_cycle(adjacency, leftover))

    # Closure and covers in one pass against topological order. Every cover
    # is an input relation (a DAG's transitive reduction is a subset of its
    # edges). A successor of v below w ranks lower than w, so with successors
    # visited by rank, v -> w is a cover exactly when bit w is not yet set.
    rank = {v: i for i, v in enumerate(topo)}
    above = [0] * event_count
    covers: list[tuple[int, int]] = []
    for v in reversed(topo):
        bits = 1 << v
        for w in sorted(adjacency[v], key=rank.__getitem__):
            if not (bits >> w) & 1:
                covers.append((v, w))
                bits |= above[w]
        above[v] = bits
    covers.sort()
    return Poset(event_count, above, tuple(covers))


def chain_poset(length: int) -> Poset:
    """Total order on ``length`` events, a convenience for tests and demos."""
    return build_poset(length, [(i, i + 1) for i in range(length - 1)])

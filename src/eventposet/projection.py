"""Forward and backward projection of poset events onto chains.

The forward projection of ``x`` onto a chain is the least chain element
that includes ``x``; the backward projection is the greatest chain element
included by ``x``. Both maps are partial: an absent projection is a
first-class ``None`` result, not an error, because elements outside the
chain's reach simply cannot be quantified from it.

Inclusion of ``x`` by chain elements is upward-closed along the chain and
inclusion of chain elements by ``x`` is downward-closed, so both
projections are found by binary search with O(1) closure tests.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .chains import Chain, ValuedChain
from .errors import NotQuantifiableError
from .poset import EventId


class ProjectionCase(Enum):
    """The four possible relationships between a chain and an element."""

    A_INCOMPARABLE = "incomparable"
    B_BACKWARD_ONLY = "backward-only"
    C_FORWARD_ONLY = "forward-only"
    D_BOTH = "both"


@dataclass(frozen=True)
class ProjectionOutcome:
    case: ProjectionCase
    forward: EventId | None
    backward: EventId | None


def forward_project(x: EventId, chain: Chain) -> EventId | None:
    """Least chain element that includes ``x``, or None."""
    poset = chain.poset
    poset.check_id(x)
    elements = chain.elements
    if not poset.leq(x, elements[-1]):
        return None
    lo, hi = 0, len(elements) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if poset.leq(x, elements[mid]):
            hi = mid
        else:
            lo = mid + 1
    return elements[lo]


def backward_project(x: EventId, chain: Chain) -> EventId | None:
    """Greatest chain element included by ``x``, or None."""
    poset = chain.poset
    poset.check_id(x)
    elements = chain.elements
    if not poset.leq(elements[0], x):
        return None
    lo, hi = 0, len(elements) - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if poset.leq(elements[mid], x):
            lo = mid
        else:
            hi = mid - 1
    return elements[lo]


_CASE_OF_PRESENCE = {
    (False, False): ProjectionCase.A_INCOMPARABLE,
    (False, True): ProjectionCase.B_BACKWARD_ONLY,
    (True, False): ProjectionCase.C_FORWARD_ONLY,
    (True, True): ProjectionCase.D_BOTH,
}


def classify_projection(x: EventId, chain: Chain) -> ProjectionOutcome:
    """Combine both projections into the four-way case classification."""
    forward = forward_project(x, chain)
    backward = backward_project(x, chain)
    case = _CASE_OF_PRESENCE[forward is not None, backward is not None]
    return ProjectionOutcome(case, forward, backward)


def _project_both_ways(x: EventId, chain: Chain) -> tuple[EventId, EventId]:
    """``(forward, backward)`` projections of ``x``, both required.

    Raises NotQuantifiableError, a MissingProjectionError, naming the
    case of ``x`` when either projection is absent.
    """
    forward = forward_project(x, chain)
    backward = backward_project(x, chain)
    if forward is None or backward is None:
        case = _CASE_OF_PRESENCE[forward is not None, backward is not None]
        raise NotQuantifiableError(
            f"event {x} is {case.value} with respect to chain {chain.name!r}"
        )
    return forward, backward


def quantify_event(x: EventId, valued_chain: ValuedChain) -> tuple[Fraction, Fraction]:
    """Chain-based coordinates ``(v(forward), v(backward))`` of ``x``.

    Only elements that project in both directions carry coordinates on
    this chain; anything else is outside its coordinate patch.
    """
    forward, backward = _project_both_ways(x, valued_chain.chain)
    return valued_chain.value_of(forward), valued_chain.value_of(backward)

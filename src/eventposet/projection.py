"""Forward and backward projection of poset events onto chains.

The forward projection of ``x`` onto a chain is the least chain element
that includes ``x``; the backward projection is the greatest chain element
included by ``x``. Both maps are partial: an absent projection is a
first-class ``None`` result, not an error, because elements outside the
chain's reach simply cannot be quantified from it.

The first projection onto a chain computes both projections of every
event at once from the poset's closure rows (see ``_build_table``) and
caches that table on the chain. Every per-event query reads its row through
``_projection_row``: one attribute read fetches the table and one
``_is_index`` call checks the id before any index. An outcome is a tuple of
the two projections, built on every call with no memo.
"""
from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .chains import Chain, ValuedChain, _check_type
from .errors import NotQuantifiableError
from .poset import EventId, _is_index, _iter_bits


class ProjectionCase(Enum):
    """The four possible relationships between a chain and an element."""

    A_INCOMPARABLE = "incomparable"
    B_BACKWARD_ONLY = "backward-only"
    C_FORWARD_ONLY = "forward-only"
    D_BOTH = "both"


_CASE_OF_PRESENCE = {
    (False, False): ProjectionCase.A_INCOMPARABLE,
    (False, True): ProjectionCase.B_BACKWARD_ONLY,
    (True, False): ProjectionCase.C_FORWARD_ONLY,
    (True, True): ProjectionCase.D_BOTH,
}


class ProjectionOutcome(NamedTuple):
    """The two projections of an event, None where absent; ``case`` follows
    from them. A tuple: it unpacks as ``(forward, backward)`` and equals that
    plain tuple."""

    forward: EventId | None
    backward: EventId | None

    @property
    def case(self) -> ProjectionCase:
        return _CASE_OF_PRESENCE[self.forward is not None, self.backward is not None]


_Table = tuple[list[EventId | None], list[EventId | None]]

_tuple_new = tuple.__new__  # an outcome without the NamedTuple's Python __new__


def _projection_table(chain: Chain) -> _Table:
    """``(forward, backward)``: the forward and the backward projection of
    every event of the poset, None where that projection is absent.

    The table of a chain is built on first use and cached on it. A
    ``chain`` that is not a Chain raises InvalidArgumentError.
    """
    _check_type(chain, Chain, "the chain to project onto")
    table = chain._projections
    if table is None:
        # Stored whole in one assignment, so a concurrent reader sees no
        # table or a complete one.
        table = _build_table(chain)
        object.__setattr__(chain, "_projections", table)
    return table


def _build_table(chain: Chain) -> _Table:
    """``(forward, backward)`` projections of every event, from closure rows."""
    above = chain.poset._above
    elements = chain.elements
    mask = 0
    for e in elements:
        mask |= 1 << e
    # The chain elements above x are a suffix of the chain, so counting its
    # length back from the end finds the least of them.
    counts = ((row & mask).bit_count() for row in above)
    forward = [elements[-c] if c else None for c in counts]
    # The rows above[e_0] ⊇ above[e_1] ⊇ ... are nested, so x's backward
    # projection is the element of the last row holding it.
    backward: list[EventId | None] = [None] * len(above)
    rows = [above[e] for e in elements]
    for e, row, next_row in zip(elements, rows, rows[1:] + [0]):
        for x in _iter_bits(row & ~next_row):
            backward[x] = e
    return forward, backward


def _projection_row(x: EventId, chain: Chain) -> tuple[EventId | None, EventId | None]:
    """``(forward, backward)`` projections of ``x``. The id is checked before
    any index: ``forward[-1]`` or ``forward[True]`` would be another event's."""
    try:
        forward, backward = chain._projections
    except (AttributeError, TypeError):  # not a Chain, or no table yet
        forward, backward = _projection_table(chain)
    if not _is_index(x, len(forward)):
        chain.poset.check_id(x)
    return forward[x], backward[x]


def forward_project(x: EventId, chain: Chain) -> EventId | None:
    """Least chain element that includes ``x``, or None."""
    return _projection_row(x, chain)[0]


def backward_project(x: EventId, chain: Chain) -> EventId | None:
    """Greatest chain element included by ``x``, or None."""
    return _projection_row(x, chain)[1]


def classify_projection(x: EventId, chain: Chain) -> ProjectionOutcome:
    """Both projections of ``x``; the outcome's ``case`` is the four-way
    classification they imply."""
    return _tuple_new(ProjectionOutcome, _projection_row(x, chain))


def _project_both_ways(x: EventId, chain: Chain) -> tuple[EventId, EventId]:
    """``(forward, backward)`` projections of ``x``, both required.

    Raises NotQuantifiableError, a MissingProjectionError, naming the
    case of ``x`` when either projection is absent.
    """
    row = _projection_row(x, chain)
    if None in row:
        case = _tuple_new(ProjectionOutcome, row).case
        raise NotQuantifiableError(
            f"event {x} is {case.value} with respect to chain {chain.name!r}"
        )
    return row


def quantify_event(x: EventId, valued_chain: ValuedChain) -> tuple[Fraction, Fraction]:
    """Chain-based coordinates ``(v(forward), v(backward))`` of ``x``.

    Only elements that project in both directions carry coordinates on
    this chain; anything else is outside its coordinate patch.
    """
    _check_type(valued_chain, ValuedChain, "the valued chain to quantify on")
    forward, backward = _project_both_ways(x, valued_chain.chain)
    return valued_chain.value_of(forward), valued_chain.value_of(backward)

"""Chain-induced structure: collinearity, betweenness, coordination.

Distinguishing chains induces geometry in an otherwise structureless
poset. An element is collinear with its projections onto two chains when
composing projections through one chain reproduces the direct projections
onto the other; five identity patterns are possible. Three of them are
invariant under order reversal (proper collinearity) and read as "element
on this side / between / on that side", which orders chains along an
emergent spatial direction. Compatibility and coordination make two
chains agree on each other's interval lengths, the analogue of observers
at relative rest. One proof decides both (``_coordination_refusal``),
cached per valued-chain pair and windows and read by every check of them,
so a pair is proved once. This module owns the two requirements that the
two-chain quantifications of :mod:`.intervals` make: coordinated chains
(``_require_coordinated``) and endpoints between them (``_require_between``).

All classification here is per element, from that element's own
projections; twists hidden between an element's projections would only be
visible through other elements and are deliberately not searched for. The
first classification against an ordered chain pair classifies every event
at once: ``_collinearity_table`` holds each event's case, cached on the
first chain, and every reader of a case or a side reads it. One evaluator
of the identity blocks, ``_matching_cases``, serves that table and
``verify``'s uniqueness check.
"""
from __future__ import annotations

from enum import Enum
from typing import Iterator

from .chains import (
    Chain,
    IndexRange,
    ValuedChain,
    _cached_per_partner,
    _check_same_poset,
    _check_type,
    _checked_window,
)
from .errors import (
    EventPosetError,
    MissingProjectionError,
    NotBetweenError,
    NotCompatibleError,
    NotCoordinatedError,
    NotProperlyCollinearError,
)
from .poset import EventId, _is_index
from .projection import _project_both_ways, _projection_table


class CollinearityCase(Enum):
    I = "I"
    II = "II"
    III = "III"
    IV = "IV"
    V = "V"
    NOT_COLLINEAR = "not-collinear"


class Betweenness(Enum):
    """Side of an element relative to an ordered chain pair (P, Q)."""

    P_SIDE = "x|P|Q"
    BETWEEN = "P|x|Q"
    Q_SIDE = "P|Q|x"
    NONE = "none"


class IntervalPosition(Enum):
    """The nine placements of an interval [a, b] against a chain pair."""

    INTERVAL_P_SIDE = "[a,b]|P|Q"
    BETWEEN = "P|[a,b]|Q"
    INTERVAL_Q_SIDE = "P|Q|[a,b]"
    A_P_B_Q = "a|P|b|Q"
    B_P_A_Q = "b|P|a|Q"
    A_P_Q_B = "a|P|Q|b"
    B_P_Q_A = "b|P|Q|a"
    P_A_Q_B = "P|a|Q|b"
    P_B_Q_A = "P|b|Q|a"


# The five identity blocks. Slots 0..3 stand for the four direct
# projections of an event x: onto P forward, P backward, Q forward and Q
# backward. An identity (lhs, image, argument) asserts that the projection
# of slot ``argument`` in the direction and onto the chain of slot ``image``
# is slot ``lhs``; a composite projection that does not exist fails it.
_CASE_IDENTITIES = (
    (CollinearityCase.I, ((0, 1, 2), (2, 2, 0), (1, 0, 3), (3, 3, 1))),
    (CollinearityCase.II, ((0, 0, 3), (2, 2, 1), (1, 1, 2), (3, 3, 0))),
    (CollinearityCase.III, ((0, 0, 2), (2, 3, 0), (1, 1, 3), (3, 2, 1))),
    (CollinearityCase.IV, ((0, 0, 2), (2, 3, 0), (1, 0, 3), (3, 3, 1))),
    (CollinearityCase.V, ((0, 1, 2), (2, 2, 0), (1, 1, 3), (3, 2, 1))),
)


_CaseTable = list[CollinearityCase | None]


def _collinearity_table(p_chain: Chain, q_chain: Chain) -> _CaseTable:
    """The case of every event against (P, Q), indexed by event; None
    where one of the event's four direct projections is missing.

    Built on first use and cached on ``p_chain``, keyed on the partner
    chain, which the cache holds weakly. Cases depend on the order alone,
    so the key is a ``Chain``, not a valuation.
    """
    _check_type(p_chain, Chain, "chain P of a chain pair")
    return _cached_per_partner(
        p_chain._collinearities,
        q_chain,
        (),
        lambda: _build_collinearity_table(p_chain, q_chain),
    )


def _slot_images(p_chain: Chain, q_chain: Chain) -> list[list[EventId | None]]:
    """The projection of every event, per slot of ``_CASE_IDENTITIES``."""
    _check_type(q_chain, Chain, "chain Q of a chain pair")
    _check_same_poset(p_chain, q_chain)
    return [*_projection_table(p_chain), *_projection_table(q_chain)]


def _matching_cases(images: list, slots: tuple) -> Iterator[CollinearityCase]:
    """The cases whose identities hold for the event with projections
    ``slots``, in case order; each composite projection is a list read."""
    for case, identities in _CASE_IDENTITIES:
        if all(images[image][slots[arg]] == slots[lhs] for lhs, image, arg in identities):
            yield case


def _build_collinearity_table(p_chain: Chain, q_chain: Chain) -> _CaseTable:
    """The first matching case of every event, or NOT_COLLINEAR."""
    images = _slot_images(p_chain, q_chain)
    return [
        None if None in slots
        else next(_matching_cases(images, slots), CollinearityCase.NOT_COLLINEAR)
        for slots in zip(*images)
    ]


def collinearity_case(x: EventId, p_chain: Chain, q_chain: Chain) -> CollinearityCase:
    """Classify ``x`` against the chain pair by the projection identities.

    Requires the four direct projections of ``x`` to exist
    (MissingProjectionError otherwise). Returns the first matching case,
    or NOT_COLLINEAR when none holds.
    """
    table = _collinearity_table(p_chain, q_chain)
    if not _is_index(x, len(table)):
        p_chain.poset.check_id(x)
    case = table[x]
    if case is None:
        # One of these raises, naming the chain and the case of x.
        _project_both_ways(x, p_chain)
        _project_both_ways(x, q_chain)
    return case


_BETWEENNESS_OF_CASE = {
    CollinearityCase.I: Betweenness.P_SIDE,
    CollinearityCase.II: Betweenness.BETWEEN,
    CollinearityCase.III: Betweenness.Q_SIDE,
}


def _side(case: CollinearityCase | None) -> Betweenness | None:
    """The side of a case; None where a projection is missing."""
    return None if case is None else _BETWEENNESS_OF_CASE.get(case, Betweenness.NONE)


def betweenness_of(x: EventId, p_chain: Chain, q_chain: Chain) -> Betweenness:
    return _side(collinearity_case(x, p_chain, q_chain))


def is_properly_collinear(x: EventId, p_chain: Chain, q_chain: Chain) -> bool:
    """True for the order-reversal-invariant cases I, II, III: the cases
    that place x on a side."""
    return collinearity_case(x, p_chain, q_chain) in _BETWEENNESS_OF_CASE


def chain_properly_collinear(x_chain: Chain, p_chain: Chain, q_chain: Chain) -> bool:
    """Proper collinearity of a whole chain with a chain pair.

    Every element of ``x_chain`` must be properly collinear with (P, Q),
    and its projections must cover, without gaps, the stretch of each
    chain between the lowest backward image and the highest forward image.
    Each element's case is read by :func:`collinearity_case` before any
    answer, so NotQuantifiableError names the first element, in chain
    order, without its projections onto P, then onto Q.
    """
    _check_same_poset(x_chain, p_chain)
    cases = [collinearity_case(x, p_chain, q_chain) for x in x_chain.elements]
    if not all(case in _BETWEENNESS_OF_CASE for case in cases):
        return False
    for target in (p_chain, q_chain):
        touched = {
            target.index_of(image)
            for x in x_chain.elements
            for image in _project_both_ways(x, target)
        }
        if len(touched) != max(touched) - min(touched) + 1:
            return False
    return True


def interval_betweenness(
    a: EventId, b: EventId, p_chain: Chain, q_chain: Chain
) -> IntervalPosition:
    """Combine endpoint sides into the nine-way interval placement."""
    side_a = betweenness_of(a, p_chain, q_chain)
    side_b = betweenness_of(b, p_chain, q_chain)
    if side_a is Betweenness.NONE or side_b is Betweenness.NONE:
        raise NotProperlyCollinearError(
            f"interval [{a}, {b}] has an endpoint not properly collinear "
            f"with chains {p_chain.name!r}, {q_chain.name!r}"
        )
    table = {
        (Betweenness.P_SIDE, Betweenness.P_SIDE): IntervalPosition.INTERVAL_P_SIDE,
        (Betweenness.BETWEEN, Betweenness.BETWEEN): IntervalPosition.BETWEEN,
        (Betweenness.Q_SIDE, Betweenness.Q_SIDE): IntervalPosition.INTERVAL_Q_SIDE,
        (Betweenness.P_SIDE, Betweenness.BETWEEN): IntervalPosition.A_P_B_Q,
        (Betweenness.BETWEEN, Betweenness.P_SIDE): IntervalPosition.B_P_A_Q,
        (Betweenness.P_SIDE, Betweenness.Q_SIDE): IntervalPosition.A_P_Q_B,
        (Betweenness.Q_SIDE, Betweenness.P_SIDE): IntervalPosition.B_P_Q_A,
        (Betweenness.BETWEEN, Betweenness.Q_SIDE): IntervalPosition.P_A_Q_B,
        (Betweenness.Q_SIDE, Betweenness.BETWEEN): IntervalPosition.P_B_Q_A,
    }
    return table[(side_a, side_b)]


def induced_chain_order(
    a_chain: Chain, b_chain: Chain, c_chain: Chain
) -> tuple[Chain, Chain, Chain]:
    """Total order on three chains induced by betweenness of the middle one.

    Every element of the middle chain must be properly collinear with and
    between the outer pair. The direction of the returned order follows
    the argument order; the opposite direction is equally valid.
    """
    _check_same_poset(b_chain, a_chain)
    for x in b_chain.elements:
        side = betweenness_of(x, a_chain, c_chain)
        if side is not Betweenness.BETWEEN:
            raise NotBetweenError(
                f"element {x} of chain {b_chain.name!r} is {side.value} "
                f"relative to {a_chain.name!r}, {c_chain.name!r}"
            )
    return (a_chain, b_chain, c_chain)


def _window_map(
    src: ValuedChain,
    dst: ValuedChain,
    src_range: IndexRange,
    dst_range: IndexRange,
    forward: bool,
) -> list[tuple[int, int]]:
    """Index pairs (i, j) of the projection map restricted to the windows."""
    images = _projection_table(dst.chain)[0 if forward else 1]
    pairs = []
    for i in range(src_range[0], src_range[1] + 1):
        # A missing image (None) is off the chain too.
        j = dst.index_of(images[src.elements[i]])
        if j is not None and dst_range[0] <= j <= dst_range[1]:
            pairs.append((i, j))
    return pairs


def _coordination_refusal(
    p: ValuedChain,
    q: ValuedChain,
    p_range: IndexRange | None,
    q_range: IndexRange | None,
) -> tuple[type[EventPosetError], str] | None:
    """The one proof of coordination: why ``p`` and ``q`` are not
    coordinated over the windows, as an error class and message, or None.

    Windows (OutOfRangeError) and posets (DifferentChainsError) are checked
    on every call; the outcome of :func:`_prove_coordination` is cached on
    ``p`` per partner chain (held weakly) and windows.
    """
    _check_type(p, ValuedChain, "chain P of a valued chain pair")
    _check_type(q, ValuedChain, "chain Q of a valued chain pair")
    p_range, q_range = _checked_window(p, p_range), _checked_window(q, q_range)
    _check_same_poset(p.chain, q.chain)
    return _cached_per_partner(
        p._coordinations,
        q,
        (p_range, q_range),
        lambda: _prove_coordination(p, q, p_range, q_range),
    )


def _prove_coordination(
    p: ValuedChain, q: ValuedChain, p_range: IndexRange, q_range: IndexRange
) -> tuple[type[EventPosetError], str] | None:
    """One pass over the four window maps, forward and backward P->Q, then
    Q->P: an empty map is a MissingProjectionError and one that skips an
    index a NotCompatibleError. Once all four are bijective, the first unit
    step whose projection changes its length is a NotCoordinatedError."""
    witness = None
    for src, dst, src_range, dst_range, arrow in (
        (p, q, p_range, q_range, "P->Q"),
        (q, p, q_range, p_range, "Q->P"),
    ):
        for forward in (True, False):
            pairs = _window_map(src, dst, src_range, dst_range, forward)
            if not pairs:
                return MissingProjectionError, (
                    f"chains {src.name!r} and {dst.name!r} share no projections "
                    "over the inspected ranges"
                )
            for (i1, j1), (i2, j2) in zip(pairs, pairs[1:]):
                if i2 != i1 + 1 or j2 != j1 + 1:
                    return NotCompatibleError, (
                        f"chains {p.name!r} and {q.name!r} are not compatible "
                        "over the inspected ranges"
                    )
                src_step = src.values[i2] - src.values[i1]
                dst_step = dst.values[j2] - dst.values[j1]
                if witness is None and src_step != dst_step:
                    witness = (
                        f"the {'forward' if forward else 'backward'} {arrow} "
                        f"projection maps indices ({i1}, {i2}) to ({j1}, {j2}), "
                        f"a step of {src_step} to one of {dst_step}"
                    )
    if witness is None:
        return None
    return NotCoordinatedError, (
        f"chains {p.name!r} and {q.name!r} do not preserve projected "
        f"interval lengths: {witness}"
    )


def check_compatible(
    p: ValuedChain,
    q: ValuedChain,
    p_range: IndexRange | None = None,
    q_range: IndexRange | None = None,
) -> bool:
    """Are the projection maps between the windows bijective?

    The forward and the backward projection in each chain direction,
    restricted to sources whose image lands in the other window, must hit
    a contiguous run exactly once per element. Checking both directions
    keeps the relation symmetric, which element-independent distances
    rely on. Raises MissingProjectionError when some direction has no
    projections over the windows at all, and OutOfRangeError for a window
    that is not an index range of its chain.
    """
    refusal = _coordination_refusal(p, q, p_range, q_range)
    if refusal is None or refusal[0] is NotCoordinatedError:
        return True
    if refusal[0] is MissingProjectionError:
        raise MissingProjectionError(refusal[1])
    return False


def check_coordinated(
    p: ValuedChain,
    q: ValuedChain,
    p_range: IndexRange | None = None,
    q_range: IndexRange | None = None,
) -> bool:
    """Compatible, and projected closed intervals keep their lengths.

    Checking consecutive elements suffices: lengths are additive, so equal
    unit steps imply equal lengths for every closed subinterval. Raises
    NotCompatibleError where :func:`check_compatible` returns False. The
    proof, ``_coordination_refusal``, is cached per pair and windows and
    shared with :func:`check_compatible` and :mod:`.intervals`.
    """
    refusal = _coordination_refusal(p, q, p_range, q_range)
    if refusal is None:
        return True
    if refusal[0] is MissingProjectionError:
        raise MissingProjectionError(refusal[1])
    if refusal[0] is NotCompatibleError:
        raise NotCompatibleError(refusal[1])
    return False


def _require_coordinated(
    p: ValuedChain,
    q: ValuedChain,
    p_range: IndexRange | None,
    q_range: IndexRange | None,
) -> None:
    """Raise NotCoordinatedError, with the reason, unless ``p`` and ``q``
    are coordinated over the windows by the cached proof of
    :func:`_coordination_refusal`."""
    refusal = _coordination_refusal(p, q, p_range, q_range)
    if refusal is not None:
        raise NotCoordinatedError(refusal[1])


def _require_between(x: EventId, p: ValuedChain, q: ValuedChain) -> None:
    """Raise unless the case of ``x`` places it between ``p`` and ``q``.

    The case is read as :func:`betweenness_of` reads it: an ``x`` without
    one of its four projections raises MissingProjectionError (a
    NotQuantifiableError naming the event, the chain and its case), and one
    whose case places it elsewhere, or nowhere, NotBetweenError.
    """
    if betweenness_of(x, p.chain, q.chain) is not Betweenness.BETWEEN:
        raise NotBetweenError(
            f"endpoint {x} is not between chains {p.name!r} and {q.name!r}"
        )

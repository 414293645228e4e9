"""Independent oracles the tests check the library against.

These deliberately avoid the library's search code paths: projections are
recomputed by linear scan over chain elements through ``Poset.leq`` and,
on lattices, from the closed-form coordinate bounds of the product order.
The collinearity cases are spelled out from their definitions over the
library's projections, apart from the library's encoding of them. The
four ``*_sweep`` functions are exhaustive per-pair, per-split and
per-event sweeps. ``verify``'s reduced order-axiom and additivity tests,
whose own sweeps run only to name violations, its one-pass monotonicity
check and its projection oracle, which scans closure rows, are checked
against them. The ``reference_*`` functions are the pair and boost
formulas as plain ``Fraction`` expressions, each result rounded once when
an operand is a float, apart from the library's shared kernel.
``bad_ids`` lists the ids every per-event entry point must refuse, and
``replaced`` rebuilds a record with some fields changed.
"""
from __future__ import annotations

import inspect
import math
import re
import sys
from enum import IntEnum
from fractions import Fraction
from functools import partial

from eventposet import (
    Chain,
    ClosedInterval,
    CollinearityCase,
    FloatRangeError,
    Lattice,
    Poset,
    backward_project,
    forward_project,
    verify,
)
from eventposet.poset import _iter_bits
from eventposet.projection import _project_both_ways
from eventposet.spacetime import _sqrt


class _Event(IntEnum):
    FIRST = 0


def bad_ids(event_count: int) -> list[tuple[object, str]]:
    """``(bad, pattern)``: ids that are not events of a poset of
    ``event_count`` events, with the pattern of ``check_id``'s refusal.

    The list of ``tests/test_poset.py``: a bool, a float, an IntEnum
    member equal to an event, a str, None, and the ints either side of the
    range. A table indexed with ``True`` or ``-1`` would answer for
    another event.
    """
    ids = (True, False, 1.0, _Event.FIRST, "1", None, -1, event_count)
    return [(bad, re.escape(f"event id {bad!r} not in 0..{event_count - 1}")) for bad in ids]


def replaced(record, **changes):
    """A record of ``record``'s class with ``changes`` in place of its
    fields, built through the class's constructor, so it is checked as any
    new record is. The fields are the constructor's parameters."""
    fields = {name: getattr(record, name) for name in inspect.signature(type(record)).parameters}
    return type(record)(**{**fields, **changes})


def brute_forward(poset: Poset, x: int, elements) -> int | None:
    """Least chain element including x, by linear scan."""
    for e in elements:
        if poset.leq(x, e):
            return e
    return None


def brute_backward(poset: Poset, x: int, elements) -> int | None:
    """Greatest chain element included by x, by linear scan."""
    best = None
    for e in elements:
        if poset.leq(e, x):
            best = e
    return best


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def lattice_forward(lattice: Lattice, x: int, du: int, dv: int, u0: int, v0: int,
                    ticks: int) -> int | None:
    """Closed-form forward projection onto a straight lattice chain.

    The least tick k with xu <= u0 + k*du and xv <= v0 + k*dv, bounded by
    the chain's extent; None when no tick satisfies both constraints.
    """
    xu, xv = lattice.coords(x)
    k = 0
    if du > 0:
        k = max(k, _ceil_div(xu - u0, du))
    elif xu > u0:
        return None
    if dv > 0:
        k = max(k, _ceil_div(xv - v0, dv))
    elif xv > v0:
        return None
    if k >= ticks:
        return None
    return lattice.event(u0 + k * du, v0 + k * dv)


def lattice_backward(lattice: Lattice, x: int, du: int, dv: int, u0: int, v0: int,
                     ticks: int) -> int | None:
    """Closed-form backward projection (greatest tick below x)."""
    xu, xv = lattice.coords(x)
    k = ticks - 1
    if du > 0:
        k = min(k, (xu - u0) // du)
    elif xu < u0:
        return None
    if dv > 0:
        k = min(k, (xv - v0) // dv)
    elif xv < v0:
        return None
    if k < 0:
        return None
    return lattice.event(u0 + k * du, v0 + k * dv)


def matching_cases(x: int, p_chain: Chain, q_chain: Chain) -> tuple[CollinearityCase, ...]:
    """Every collinearity case whose identities hold for ``x``: the
    uncached reference that the library's collinearity table is checked
    against.

    ``Pf``/``Pb`` project forward/backward onto P, ``Qf``/``Qb`` onto Q,
    and ``pf, pb, qf, qb`` are the four direct projections of ``x``. A case
    holds when composing projections through one chain gives the direct
    projection onto the other; a composite that does not exist is None and
    fails. Raises the library's NotQuantifiableError when a direct
    projection of ``x`` is missing.
    """
    pf, pb = _project_both_ways(x, p_chain)
    qf, qb = _project_both_ways(x, q_chain)
    Pf, Pb = partial(forward_project, chain=p_chain), partial(backward_project, chain=p_chain)
    Qf, Qb = partial(forward_project, chain=q_chain), partial(backward_project, chain=q_chain)
    blocks = (
        # The proper cases, which place x on a side: x|P|Q, P|x|Q, P|Q|x.
        (CollinearityCase.I, (Pb(qf) == pf, Qf(pf) == qf, Pf(qb) == pb, Qb(pb) == qb)),
        (CollinearityCase.II, (Pf(qb) == pf, Qf(pb) == qf, Pb(qf) == pb, Qb(pf) == qb)),
        (CollinearityCase.III, (Pf(qf) == pf, Qb(pf) == qf, Pb(qb) == pb, Qf(pb) == qb)),
        # Collinear, but not invariant under order reversal.
        (CollinearityCase.IV, (Pf(qf) == pf, Qb(pf) == qf, Pf(qb) == pb, Qb(pb) == qb)),
        (CollinearityCase.V, (Pb(qf) == pf, Qf(pf) == qf, Pb(qb) == pb, Qf(pb) == qb)),
    )
    return tuple(case for case, identities in blocks if all(identities))


def order_axioms_sweep(poset: Poset) -> list[str]:
    """Every transitivity and antisymmetry violation of the closure rows."""
    above = [poset.above_bits(x) for x in poset.events()]
    bad = []
    for x, above_x in enumerate(above):
        for y in _iter_bits(above_x):
            if above[y] & ~above_x:
                bad.append(f"transitivity broken at {x} <= {y}")
            if y != x and above[y] >> x & 1:
                bad.append(f"antisymmetry broken at {x}, {y}")
    return bad


def projection_monotone_sweep(poset: Poset, chains) -> list[str]:
    """Every sandwich and monotonicity violation of the chains' projections."""
    above = [poset.above_bits(x) for x in poset.events()]
    bad = []
    for chain in chains:
        forwards = [forward_project(x, chain) for x in poset.events()]
        backwards = [backward_project(x, chain) for x in poset.events()]
        for x, above_x in enumerate(above):
            fx, bx = forwards[x], backwards[x]
            if fx is not None and bx is not None and not above[bx] >> fx & 1:
                bad.append(f"projection sandwich broken at {x} on {chain.name!r}")
            for y in _iter_bits(above_x):
                fy, by = forwards[y], backwards[y]
                if fx is not None and fy is not None and not above[fx] >> fy & 1:
                    bad.append(f"forward monotonicity broken at {x} <= {y}")
                if bx is not None and by is not None and not above[bx] >> by & 1:
                    bad.append(f"backward monotonicity broken at {x} <= {y}")
    return bad


def projection_oracle_sweep(poset: Poset, chains) -> list[str]:
    """Every event whose forward or backward projection onto a chain is not
    the ``leq`` scan's answer, in ``verify``'s message and order."""
    bad = []
    for chain in chains:
        for x in poset.events():
            if forward_project(x, chain) != brute_forward(poset, x, chain.elements):
                bad.append(f"forward projection of {x} onto {chain.name!r}")
            if backward_project(x, chain) != brute_backward(poset, x, chain.elements):
                bad.append(f"backward projection of {x} onto {chain.name!r}")
    return bad


def length_additivity_sweep(chains) -> list[str]:
    """Every split ``(i, j, k)`` whose lengths do not add.

    Lengths come from ``verify.interval_length``, looked up per call, so a
    replacement installed there is what both this sweep and ``verify`` see.
    """
    bad = []
    for vc in chains:
        n = len(vc)
        for i in range(n):
            for k in range(i, n):
                whole = verify.interval_length(ClosedInterval(vc, i, k))
                for j in range(i, k + 1):
                    left = verify.interval_length(ClosedInterval(vc, i, j))
                    right = verify.interval_length(ClosedInterval(vc, j, k))
                    if left + right != whole:
                        bad.append(f"additivity broken on {vc.name!r} at {i},{j},{k}")
    return bad


def _round_once(value: Fraction, inexact: bool) -> Fraction | float:
    """``value`` as it is, or, when an operand was a float, the nearest float;
    FloatRangeError for a nonzero value outside the normal float range."""
    if not inexact:
        return value
    try:
        rounded = float(value)
    except OverflowError:
        rounded = math.inf
    if value and not sys.float_info.min <= abs(rounded) < math.inf:
        raise FloatRangeError(f"{value} is outside the float range")
    return rounded


def _exact_operands(*values) -> tuple[list[Fraction], bool]:
    return [Fraction(v) for v in values], any(isinstance(v, float) for v in values)


def reference_length(first, second) -> Fraction | float:
    (x, y), inexact = _exact_operands(first, second)
    return _round_once((x + y) / 2, inexact)


def reference_distance(first, second) -> Fraction | float:
    (x, y), inexact = _exact_operands(first, second)
    return _round_once((x - y) / 2, inexact)


def reference_decompose(first, second) -> tuple:
    """The components ``(mean, mean, half, -half)`` of the two parts."""
    mean, half = reference_length(first, second), reference_distance(first, second)
    return mean, mean, half, -half


def reference_to_coords(first, second) -> tuple:
    return reference_length(first, second), reference_distance(first, second)


def reference_minkowski(first, second) -> tuple:
    (x, y), inexact = _exact_operands(first, second)
    dt, dx = (x + y) / 2, (x - y) / 2
    return tuple(_round_once(v, inexact) for v in (x * y, dt * dt, dx * dx))


def reference_beta(m: Fraction, n: Fraction) -> Fraction:
    return (m - n) / (m + n)


def reference_gamma(m: Fraction, n: Fraction) -> Fraction | float:
    b = reference_beta(m, n)
    return 1 / _sqrt(1 - b * b)


def reference_lorentz_apply(dt, dx, m: Fraction, n: Fraction) -> tuple:
    b = reference_beta(m, n)
    (g, t, x), inexact = _exact_operands(reference_gamma(m, n), dt, dx)
    return _round_once(g * (t + b * x), inexact), _round_once(g * (x + b * t), inexact)

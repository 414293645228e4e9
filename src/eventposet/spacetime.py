"""The emergent space-time layer over interval pairs.

The product of a pair's components is the interval scalar, invariant
among linearly-related quantifying chains; its sign separates chain-like
(time-like), antichain-like (space-like), and projection-like (null)
intervals. The pair transform rescales components by sqrt(m/n) and its
inverse, which under the change of variables dt = (first + second)/2,
dx = (first - second)/2 is a Lorentz boost with beta = (m - n)/(m + n).
A chain linearly related to another projects its unit steps onto it with
constant lengths (m, n); :func:`detect_linear_relation` returns them as a
:class:`PairTransform`.

Results stay exact rationals whenever the needed square roots are exact
(the lattice generators are arranged so they are); otherwise values fall
back to floats. The one exact-or-float decision is :func:`_sqrt`; a float
root, like a float component, follows the rule of :mod:`.intervals`.
"""
from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction

from .chains import (
    RationalLike,
    ValuedChain,
    _check_same_poset,
    _check_type,
    _Record,
    _set,
    as_fraction,
)
from .errors import (
    CoincidentChainsError,
    DegenerateTransformError,
    FloatRangeError,
    InvalidArgumentError,
    NotLinearlyRelatedError,
    NotOrthogonalError,
    OutOfRangeError,
)
from .intervals import (
    IntervalKind,
    IntervalPair,
    _component,
    _exact,
    _half_sum_and_difference,
    _kind_of_scalar,
    _rounded,
    _to_float,
    chain_distance,
    distance_of_pair,
    pair,
)
from .poset import EventId
from .projection import quantify_event


class Character(Enum):
    TIME_LIKE = "time-like"
    SPACE_LIKE = "space-like"
    NULL = "null"


_CHARACTER_OF_KIND = {
    IntervalKind.CHAIN_LIKE: Character.TIME_LIKE,
    IntervalKind.ANTICHAIN_LIKE: Character.SPACE_LIKE,
    IntervalKind.PROJECTION_LIKE: Character.NULL,
}


class ScalarResult(_Record):
    __slots__ = _fields = ("value", "character")

    def __init__(self, value: Fraction | float, character: Character):
        _set(self, "value", value)
        _set(self, "character", character)


class ScalarLength(_Record):
    """sqrt of the interval scalar; ``imaginary`` marks a negative radicand."""

    __slots__ = _fields = ("value", "imaginary")

    def __init__(self, value: Fraction | float, imaginary: bool):
        _set(self, "value", value)
        _set(self, "imaginary", imaginary)

    def __str__(self) -> str:
        return f"{self.value}i" if self.imaginary else f"{self.value}"


class SpacetimeCoords(_Record):
    __slots__ = _fields = ("dt", "dx")

    def __init__(self, dt: Fraction | float, dx: Fraction | float):
        _set(self, "dt", _component(dt))
        _set(self, "dx", _component(dx))


class PairTransform(_Record):
    """Projection step lengths (m, n) relating two linearly-related chains.

    A vanishing component means every element of one chain projects to a
    single element of the other (|beta| = 1); such transforms cannot be
    inverted and are rejected.
    """

    __slots__ = _fields = ("m", "n")

    def __init__(self, m: RationalLike, n: RationalLike):
        m, n = as_fraction(m), as_fraction(n)
        if m <= 0 or n <= 0:
            raise DegenerateTransformError(
                f"pair transform needs positive step lengths, got ({m}, {n})"
            )
        _set(self, "m", m)
        _set(self, "n", n)

    def inverse(self) -> "PairTransform":
        return PairTransform(self.n, self.m)

    def __str__(self) -> str:
        return f"({self.m}, {self.n})"


def exact_sqrt(value: RationalLike) -> Fraction | None:
    """Exact rational square root, or None when irrational or negative.

    ``value`` is read by :func:`~.chains.as_fraction`, as every rational
    argument is: ``exact_sqrt(2.25)`` and ``exact_sqrt("9/4")`` are 3/2.
    """
    value = as_fraction(value)
    if value < 0:
        return None
    num, den = value.numerator, value.denominator
    root_num, root_den = math.isqrt(num), math.isqrt(den)
    if root_num * root_num == num and root_den * root_den == den:
        return Fraction(root_num, root_den)
    return None


def _sqrt(value: Fraction) -> Fraction | float:
    """Exact root of a rational square, else the float root."""
    root = exact_sqrt(value)
    if root is not None:
        return root
    # isqrt of value * 4**k, with k chosen so that the integer root has 64
    # bits or more, is the root times 2**k to better than 2**-63 relative.
    num, den = value.numerator, value.denominator
    k = max(0, 64 - (num.bit_length() - den.bit_length()) // 2)
    return _to_float(Fraction(math.isqrt((num << 2 * k) // den), 1 << k))


def interval_scalar(p: IntervalPair) -> ScalarResult:
    """Product of the pair components, with its causal character."""
    _check_type(p, IntervalPair, "an interval pair")
    (first, second), inexact = _exact(p.first, p.second)
    value = _rounded(first * second, inexact)
    return ScalarResult(value, _CHARACTER_OF_KIND[_kind_of_scalar(value)])


def scalar_length(p: IntervalPair) -> ScalarLength:
    """sqrt(first * second); imaginary for antichain-like pairs."""
    _check_type(p, IntervalPair, "an interval pair")
    (first, second), inexact = _exact(p.first, p.second)
    product = first * second
    return ScalarLength(_rounded(_sqrt(abs(product)), inexact), product < 0)


def minkowski_form(p: IntervalPair) -> tuple[Fraction, Fraction, Fraction]:
    """(scalar, dt^2, dx^2) with scalar = dt^2 - dx^2 exactly."""
    dt, dx, inexact = _half_sum_and_difference(p)
    dt2, dx2 = dt * dt, dx * dx
    values = (dt2 - dx2, dt2, dx2)
    return tuple(map(_to_float, values)) if inexact else values


def detect_linear_relation(s: ValuedChain, p: ValuedChain) -> PairTransform:
    """The pair transform of chain S onto chain P: its per-unit projection
    step lengths.

    Each valuation step of S must forward-project onto P with length
    ``m * step`` and backward-project with length ``n * step`` for fixed
    rationals m, n; constancy is exact, with no tolerance. Zero-length
    steps (coarse graining) must project to zero-length steps. A null pair,
    with m or n zero, is refused with DegenerateTransformError.
    """
    _check_type(s, ValuedChain, "chain S of a linear relation")
    _check_type(p, ValuedChain, "chain P of a linear relation")
    _check_same_poset(s.chain, p.chain)
    if len(s) < 2:
        raise NotLinearlyRelatedError(
            f"chain {s.name!r} has no steps to compare"
        )
    images = [quantify_event(x, p) for x in s.elements]

    m: Fraction | None = None
    n: Fraction | None = None
    for k in range(len(s) - 1):
        step = s.values[k + 1] - s.values[k]
        fwd_step = images[k + 1][0] - images[k][0]
        bwd_step = images[k + 1][1] - images[k][1]
        if step == 0:
            if fwd_step != 0 or bwd_step != 0:
                raise NotLinearlyRelatedError(
                    f"zero-length step {k} of {s.name!r} projects onto "
                    f"{p.name!r} with nonzero length"
                )
            continue
        ratio_f = fwd_step / step
        ratio_b = bwd_step / step
        if m is None:
            m, n = ratio_f, ratio_b
        elif ratio_f != m or ratio_b != n:
            raise NotLinearlyRelatedError(
                f"step {k} of {s.name!r} projects onto {p.name!r} with "
                f"lengths ({ratio_f}, {ratio_b}) per unit, expected ({m}, {n})"
            )
    if m is None:
        raise NotLinearlyRelatedError(
            f"chain {s.name!r} has zero total length"
        )
    if m == 0 or n == 0:
        raise DegenerateTransformError(
            f"chain {s.name!r} projects onto {p.name!r} with lengths ({m}, {n}) "
            "per unit: |beta| = 1, so the pair is not a frame"
        )
    return PairTransform(m, n)


def apply_pair_transform(p: IntervalPair, t: PairTransform) -> IntervalPair:
    """Rescale components by sqrt(m/n) and sqrt(n/m).

    The reciprocal factors preserve the interval scalar: exactly when m/n
    is a rational square, to 1e-12 otherwise. The result keeps the basis
    but names no chains: the source chains did not quantify it, so it
    joins other transported pairs but not the pairs of those chains.
    """
    _check_type(p, IntervalPair, "an interval pair")
    _check_type(t, PairTransform, "a pair transform")
    factor = _sqrt(t.m / t.n)
    # Each component is rounded only if it or the factor is a float.
    (first, exact_factor), first_inexact = _exact(p.first, factor)
    (second, _), second_inexact = _exact(p.second, factor)
    return IntervalPair(
        _rounded(first * exact_factor, first_inexact),
        _rounded(second / exact_factor, second_inexact),
        p.basis,
    )


def beta(t: PairTransform) -> Fraction:
    """(m - n) / (m + n): the emergent relative speed, always exact."""
    _check_type(t, PairTransform, "a pair transform")
    m, n = t.m, t.n
    # One Fraction from the four ints: (ad - cb) / (ad + cb) for m = a/b, n = c/d.
    ad, cb = m.numerator * n.denominator, n.numerator * m.denominator
    return Fraction(ad - cb, ad + cb)


def gamma(t: PairTransform) -> Fraction | float:
    """1 / sqrt(1 - beta^2) = (m + n) / (2 sqrt(mn))."""
    b = beta(t)
    return 1 / _sqrt(1 - b * b)


def lorentz_matrix(
    t: PairTransform,
) -> tuple[tuple[Fraction | float, Fraction | float], tuple[Fraction | float, Fraction | float]]:
    """Boost matrix [[g, bg], [bg, g]] applied by :func:`lorentz_apply`.

    This is the coordinate form of the pair transform itself: the
    off-diagonal sign is fixed by sqrt(m/n) = gamma * (1 + beta), so a
    pair carried from one chain to the other transforms with +beta*gamma
    off-diagonal. The opposite sign belongs to the inverse transform.
    """
    g = gamma(t)
    bg = g * beta(t)
    return ((g, bg), (bg, g))


def compose_transforms(t1: PairTransform, t2: PairTransform) -> PairTransform:
    """Componentwise product; betas combine by the velocity addition rule."""
    _check_type(t1, PairTransform, "the first pair transform")
    _check_type(t2, PairTransform, "the second pair transform")
    return PairTransform(t1.m * t2.m, t1.n * t2.n)


def to_coords(p: IntervalPair) -> SpacetimeCoords:
    dt, dx, inexact = _half_sum_and_difference(p)
    return SpacetimeCoords(_rounded(dt, inexact), _rounded(dx, inexact))


def from_coords(coords: SpacetimeCoords) -> IntervalPair:
    _check_type(coords, SpacetimeCoords, "spacetime coordinates")
    (dt, dx), inexact = _exact(coords.dt, coords.dx)
    return IntervalPair(_rounded(dt + dx, inexact), _rounded(dt - dx, inexact))


def lorentz_apply(coords: SpacetimeCoords, t: PairTransform) -> SpacetimeCoords:
    """The boost of :func:`lorentz_matrix`; identical to the pair-transform
    route. Computed as gamma * (dt + beta * dx) and gamma * (dx + beta * dt)
    with the exact beta, so a float gamma is the only rounded operand.
    """
    _check_type(coords, SpacetimeCoords, "spacetime coordinates")
    b = beta(t)
    (g, dt, dx), inexact = _exact(gamma(t), coords.dt, coords.dx)
    return SpacetimeCoords(_rounded(g * (dt + b * dx), inexact), _rounded(g * (dx + b * dt), inexact))


def pythagorean_join(
    a_pair: IntervalPair, b_pair: IntervalPair, *, orthogonal: bool
) -> Fraction | float:
    """Squared joint extent of two orthogonal pure antisymmetric intervals.

    Scalars of orthogonal intervals add, so the squared magnitudes of the
    antisymmetric components combine as dc^2 = da^2 + db^2. Orthogonality
    cannot be read off the pairs themselves and must be asserted by the
    caller, who knows the subspaces.
    """
    _check_type(a_pair, IntervalPair, "the first interval pair")
    _check_type(b_pair, IntervalPair, "the second interval pair")
    if not orthogonal:
        raise NotOrthogonalError("pythagorean_join requires orthogonal subspaces")
    for p in (a_pair, b_pair):
        if not p.is_antisymmetric:
            raise NotOrthogonalError(f"pair {p} is not pure antisymmetric")
    (a, b), inexact = _exact(a_pair.first, b_pair.first)
    return _rounded(a * a + b * b, inexact)


def spherical_decompose(
    dt: float, dr: float, theta: float, phi: float
) -> tuple[float, float, float, float]:
    """Split a radial antisymmetric extent over two decomposition chains.

    Returns (dt, dr sin(theta) cos(phi), dr sin(theta) sin(phi),
    dr cos(theta)), each exact from the float sines and cosines and rounded
    once, by the float rule of :mod:`.intervals`. As sin^2 + cos^2 = 1, the
    spatial squares add to dr^2, so the scalar dt^2 - dr^2 is dt^2 minus
    their sum; the rounded components are checked to add to dr^2 within
    1e-12 of it (NotOrthogonalError otherwise). An angle that is infinite,
    NaN or too large for a float raises FloatRangeError, and one that is
    not a real number, such as None or a string, InvalidArgumentError.
    """
    dt, dr = _component(dt), _component(dr)
    for angle in (theta, phi):
        try:
            finite = math.isfinite(angle)
        except OverflowError:  # an int or Fraction beyond the float range
            raise FloatRangeError("angle is outside the float range") from None
        except TypeError:
            raise InvalidArgumentError(f"angle {angle!r} is not a real number") from None
        if not finite:
            raise FloatRangeError(f"angle {angle} is not a finite number")
    (r, sin_t, cos_t, sin_p, cos_p), _ = _exact(
        dr, math.sin(theta), math.cos(theta), math.sin(phi), math.cos(phi)
    )
    components = (
        _to_float(dt),
        _to_float(r * sin_t * cos_p),
        _to_float(r * sin_t * sin_p),
        _to_float(r * cos_t),
    )
    spatial, _ = _exact(*components[1:])
    squares = sum(c * c for c in spatial)
    if abs(squares - r * r) > r * r / 10**12:
        raise NotOrthogonalError(
            f"spherical split broke the scalar: the squares of {components[1:]} "
            f"do not add to the square of {dr}"
        )
    return components


def element_chain_distance(x: EventId, p: ValuedChain, ref: EventId) -> Fraction:
    """Antisymmetric combination of the projections of ``x`` and ``ref``.

    ``ref`` must lie on the chain; it cancels, so the result is
    independent of which reference element is used. The magnitude is the
    separation between the element and the chain; a single chain carries
    no orientation, so the sign is fixed (backward minus forward, halved)
    rather than side-dependent.
    """
    _check_type(p, ValuedChain, "the valued chain to quantify on")
    if p.index_of(ref) is None:
        raise OutOfRangeError(f"reference {ref} is not on chain {p.name!r}")
    forward_value, backward_value = quantify_event(x, p)
    ref_value = p.value_of(ref)
    return distance_of_pair(pair(ref_value - forward_value, ref_value - backward_value))


def chain_separation(p: ValuedChain, q: ValuedChain) -> Fraction:
    """Chain distance evaluated at the first elements of both chains.

    Coordinated chains project onto each other, so by monotonicity the
    first element of each has a forward image on the other.
    """
    _check_type(p, ValuedChain, "chain P of a valued chain pair")
    _check_type(q, ValuedChain, "chain Q of a valued chain pair")
    return chain_distance(p, q, p.elements[0], q.elements[0])


def combine_projection_distances(d_xp, d_xq, d_yp, d_yq, d_pq):
    """Core arithmetic of the subspace projection, on raw distances.

    The antisymmetric combination of squared element-chain distances,
    normalized by twice the inter-chain separation. Squares make the
    element-chain signs irrelevant; the separation enters by magnitude,
    so the result is oriented from the first chain toward the second.
    Computed exactly; a float among the inputs rounds the result once.
    """
    (d_xp, d_xq, d_yp, d_yq, d_pq), inexact = _exact(
        *map(_component, (d_xp, d_xq, d_yp, d_yq, d_pq))
    )
    if d_pq == 0:
        raise CoincidentChainsError("the chain pair has zero separation")
    numerator = (d_yp * d_yp - d_yq * d_yq) - (d_xp * d_xp - d_xq * d_xq)
    return _rounded(numerator / (2 * abs(d_pq)), inexact)


def subspace_projection(
    x: EventId, y: EventId, p: ValuedChain, q: ValuedChain
) -> Fraction:
    """Projection of the interval [x, y] onto the subspace of (P, Q).

    Consistent under replacing (P, Q) by any other coordinated chain pair
    of the same subspace with the same orientation, and insensitive to
    displacement of the endpoints orthogonal to the subspace (the
    displacement adds equally to both squared distances and cancels).
    """
    separation = chain_separation(p, q)
    d_xp = element_chain_distance(x, p, p.elements[0])
    d_xq = element_chain_distance(x, q, q.elements[0])
    d_yp = element_chain_distance(y, p, p.elements[0])
    d_yq = element_chain_distance(y, q, q.elements[0])
    return combine_projection_distances(d_xp, d_xq, d_yp, d_yq, separation)

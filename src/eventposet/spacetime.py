"""The emergent space-time layer over interval pairs.

The product of a pair's components is the interval scalar, invariant
among linearly-related quantifying chains; its sign separates chain-like
(time-like), antichain-like (space-like), and projection-like (null)
intervals. The pair transform rescales components by sqrt(m/n) and its
inverse, which under the change of variables dt = (first + second)/2,
dx = (first - second)/2 is a Lorentz boost with beta = (m - n)/(m + n).

Results stay exact rationals whenever the needed square roots are exact
(the lattice generators are arranged so they are); otherwise values fall
back to floats. The one exact-or-float decision is :func:`_sqrt`; a float
root, like a float component, follows the rule of :mod:`.intervals`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .chains import ValuedChain, as_fraction
from .errors import (
    CoincidentChainsError,
    DegenerateTransformError,
    OutOfRangeError,
)
from .intervals import (
    IntervalKind,
    IntervalPair,
    _component,
    _exact,
    _kind_of_scalar,
    _rounded,
    _to_float,
    chain_distance,
    distance_of_pair,
    length_of_pair,
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


@dataclass(frozen=True)
class ScalarResult:
    value: Fraction | float
    character: Character


@dataclass(frozen=True)
class ScalarLength:
    """sqrt of the interval scalar; ``imaginary`` marks a negative radicand."""

    value: Fraction | float
    imaginary: bool

    def __str__(self) -> str:
        return f"{self.value}i" if self.imaginary else f"{self.value}"


@dataclass(frozen=True)
class PairTransform:
    """Projection step lengths (m, n) relating two linearly-related chains.

    A vanishing component means every element of one chain projects to a
    single element of the other (|beta| = 1); such transforms cannot be
    inverted and are rejected.
    """

    m: Fraction
    n: Fraction

    def __post_init__(self):
        object.__setattr__(self, "m", as_fraction(self.m))
        object.__setattr__(self, "n", as_fraction(self.n))
        if self.m <= 0 or self.n <= 0:
            raise DegenerateTransformError(
                f"pair transform needs positive step lengths, got "
                f"({self.m}, {self.n})"
            )

    def inverse(self) -> "PairTransform":
        return PairTransform(self.n, self.m)


@dataclass(frozen=True)
class SpacetimeCoords:
    dt: Fraction | float
    dx: Fraction | float

    def __post_init__(self):
        object.__setattr__(self, "dt", _component(self.dt))
        object.__setattr__(self, "dx", _component(self.dx))


def exact_sqrt(value: Fraction) -> Fraction | None:
    """Exact rational square root, or None when irrational or negative."""
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
    (first, second), inexact = _exact(p.first, p.second)
    value = _rounded(first * second, inexact)
    return ScalarResult(value, _CHARACTER_OF_KIND[_kind_of_scalar(value)])


def scalar_length(p: IntervalPair) -> ScalarLength:
    """sqrt(first * second); imaginary for antichain-like pairs."""
    (first, second), inexact = _exact(p.first, p.second)
    product = first * second
    return ScalarLength(_rounded(_sqrt(abs(product)), inexact), product < 0)


def minkowski_form(p: IntervalPair) -> tuple[Fraction, Fraction, Fraction]:
    """(scalar, dt^2, dx^2) with scalar = dt^2 - dx^2 exactly."""
    (first, second), inexact = _exact(p.first, p.second)
    exact = pair(first, second) if inexact else p
    dt, dx = length_of_pair(exact), distance_of_pair(exact)
    values = (first * second, dt * dt, dx * dx)
    return tuple(map(_to_float, values)) if inexact else values


def apply_pair_transform(p: IntervalPair, t: PairTransform) -> IntervalPair:
    """Rescale components by sqrt(m/n) and sqrt(n/m).

    The reciprocal factors preserve the interval scalar: exactly when m/n
    is a rational square, to 1e-12 otherwise.
    """
    factor = _sqrt(t.m / t.n)
    # Each component is rounded only if it or the factor is a float.
    (first, exact_factor), first_inexact = _exact(p.first, factor)
    (second, _), second_inexact = _exact(p.second, factor)
    return IntervalPair(
        _rounded(first * exact_factor, first_inexact),
        _rounded(second / exact_factor, second_inexact),
        p.basis,
        p.chains,
    )


def beta(t: PairTransform) -> Fraction:
    """(m - n) / (m + n): the emergent relative speed, always exact."""
    return (t.m - t.n) / (t.m + t.n)


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
    return PairTransform(t1.m * t2.m, t1.n * t2.n)


def to_coords(p: IntervalPair) -> SpacetimeCoords:
    return SpacetimeCoords(length_of_pair(p), distance_of_pair(p))


def from_coords(coords: SpacetimeCoords) -> IntervalPair:
    (dt, dx), inexact = _exact(coords.dt, coords.dx)
    return IntervalPair(_rounded(dt + dx, inexact), _rounded(dt - dx, inexact))


def lorentz_apply(coords: SpacetimeCoords, t: PairTransform) -> SpacetimeCoords:
    """The boost of :func:`lorentz_matrix`; identical to the pair-transform
    route. Computed as gamma * (dt + beta * dx) and gamma * (dx + beta * dt)
    with the exact beta, so a float gamma is the only rounded operand.
    """
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
    if not orthogonal:
        raise ValueError("pythagorean_join requires orthogonal subspaces")
    for p in (a_pair, b_pair):
        if not p.is_antisymmetric:
            raise ValueError(f"pair {p} is not pure antisymmetric")
    (a, b), inexact = _exact(a_pair.first, b_pair.first)
    return _rounded(a * a + b * b, inexact)


def spherical_decompose(
    dt: float, dr: float, theta: float, phi: float
) -> tuple[float, float, float, float]:
    """Split a radial antisymmetric extent over two decomposition chains.

    Returns (dt, dr sin(theta) cos(phi), dr sin(theta) sin(phi),
    dr cos(theta)). The sin/cos parameterization keeps f^2 + g^2 = 1, so
    the scalar dt^2 - dr^2 equals dt^2 minus the spatial sum of squares;
    the identity is checked to 1e-12 before returning.
    """
    components = (
        float(dt),
        float(dr) * math.sin(theta) * math.cos(phi),
        float(dr) * math.sin(theta) * math.sin(phi),
        float(dr) * math.cos(theta),
    )
    radial = components[0] ** 2 - float(dr) ** 2
    cartesian = components[0] ** 2 - sum(c * c for c in components[1:])
    if not math.isclose(radial, cartesian, rel_tol=1e-12, abs_tol=1e-12):
        raise ValueError(
            f"spherical split broke the scalar: {radial} vs {cartesian}"
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
    return chain_distance(p, q, p.elements[0], q.elements[0])


def combine_projection_distances(d_xp, d_xq, d_yp, d_yq, d_pq):
    """Core arithmetic of the subspace projection, on raw distances.

    The antisymmetric combination of squared element-chain distances,
    normalized by twice the inter-chain separation. Squares make the
    element-chain signs irrelevant; the separation enters by magnitude,
    so the result is oriented from the first chain toward the second.
    """
    if d_pq == 0:
        raise CoincidentChainsError("the chain pair has zero separation")
    numerator = (d_yp * d_yp - d_yq * d_yq) - (d_xp * d_xp - d_xq * d_xq)
    return numerator / (2 * abs(d_pq))


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

import math
import random
import sys
from fractions import Fraction
from itertools import accumulate, product

import pytest
from hypothesis import example, given, settings, strategies as st

from eventposet import (
    BasisMismatchError,
    Character,
    CoincidentChainsError,
    DegenerateTransformError,
    EventPosetError,
    FloatRangeError,
    FormatError,
    GeneralizedInterval,
    IntervalPair,
    MissingProjectionError,
    NotOrthogonalError,
    OutOfRangeError,
    PairTransform,
    SpacetimeCoords,
    apply_pair_transform,
    beta,
    chain_distance,
    chain_separation,
    combine_projection_distances,
    compose_transforms,
    decompose,
    distance_of_pair,
    element_chain_distance,
    exact_sqrt,
    from_coords,
    gamma,
    generate_random,
    generate_simplex,
    interval_pair_two_chains,
    interval_scalar,
    join_intervals,
    length_of_pair,
    lorentz_apply,
    lorentz_matrix,
    make_valued_chain,
    maximal_chains,
    minkowski_form,
    pair,
    pythagorean_join,
    scalar_length,
    spherical_decompose,
    standard_lattice,
    subspace_projection,
    to_coords,
)
from eventposet.verify import projection_lattice

import oracles

T41 = PairTransform(4, 1)


def test_interval_scalar_characters():
    timelike = interval_scalar(pair(4, 1))
    assert (timelike.value, timelike.character) == (4, Character.TIME_LIKE)
    spacelike = interval_scalar(pair(3, -3))
    assert (spacelike.value, spacelike.character) == (-9, Character.SPACE_LIKE)
    null = interval_scalar(pair(3, 0))
    assert (null.value, null.character) == (0, Character.NULL)


def test_scalar_length_exact():
    sigma = scalar_length(pair(4, 1))
    assert sigma.value == 2 and not sigma.imaginary
    assert isinstance(sigma.value, Fraction)
    sigma = scalar_length(pair(7, 7))
    assert sigma.value == 7
    sigma = scalar_length(pair(1, -1))
    assert sigma.value == 1 and sigma.imaginary


def test_scalar_length_inexact_falls_back_to_float():
    sigma = scalar_length(pair(2, 1))
    assert isinstance(sigma.value, float)
    assert math.isclose(sigma.value, math.sqrt(2), rel_tol=1e-12)


@given(st.fractions(min_value=1, max_value=50, max_denominator=9))
def test_scalar_length_homogeneous(alpha):
    base = pair(9, 4)
    scaled = pair(alpha * base.first, alpha * base.second)
    lhs = scalar_length(scaled).value
    rhs = alpha * scalar_length(base).value
    assert math.isclose(float(lhs), float(rhs), rel_tol=1e-12)


def test_minkowski_form_values():
    assert minkowski_form(pair(4, 1)) == (4, Fraction(25, 4), Fraction(9, 4))
    assert minkowski_form(pair(5, 5)) == (25, 25, 0)
    assert minkowski_form(pair(5, -5)) == (-25, 0, 25)


def test_pair_transform_tick():
    k = exact_sqrt(Fraction(4) * Fraction(1))
    moved = apply_pair_transform(pair(k, k), T41)
    assert (moved.first, moved.second) == (4, 1)


def test_pair_transform_identity():
    same = apply_pair_transform(pair(3, 5), PairTransform(1, 1))
    assert (same.first, same.second) == (3, 5)


def test_pair_transform_preserves_scalar():
    moved = apply_pair_transform(pair(3, 2), T41)
    assert (moved.first, moved.second) == (6, 1)
    assert moved.first * moved.second == 6


def test_pair_transform_float_path():
    t = PairTransform(2, 1)
    moved = apply_pair_transform(pair(3, 2), t)
    assert isinstance(moved.first, float)
    assert math.isclose(moved.first * moved.second, 6.0, rel_tol=1e-12)


def test_transported_pair_names_no_chains(lattice12):
    # The (P, Q) pair moved by (4, 1) is no longer P and Q's quantification,
    # so it must not add to an unmoved (P, Q) pair; two moved pairs still add.
    p, q = lattice12.chains["P"], lattice12.chains["Q"]
    first, second = GeneralizedInterval(50, 63), GeneralizedInterval(63, 76)
    first_pair = interval_pair_two_chains(first, p, q)
    second_pair = interval_pair_two_chains(second, p, q)
    assert (first_pair.first, first_pair.second) == (second_pair.first, second_pair.second) == (1, 1)
    moved = apply_pair_transform(first_pair, T41)
    assert (moved.first, moved.second, moved.chains) == (2, Fraction(1, 2), ())
    assert moved.basis is first_pair.basis
    with pytest.raises(BasisMismatchError):
        join_intervals(first, moved, second, second_pair)
    _, joined = join_intervals(first, moved, second, apply_pair_transform(second_pair, T41))
    assert (joined.first, joined.second) == (4, 1)


def test_degenerate_transform_rejected():
    with pytest.raises(DegenerateTransformError):
        PairTransform(0, 1)
    with pytest.raises(DegenerateTransformError):
        PairTransform(1, 0)
    with pytest.raises(DegenerateTransformError):
        PairTransform(-4, 1)


def test_beta_gamma_values():
    assert beta(T41) == Fraction(3, 5)
    assert gamma(T41) == Fraction(5, 4)
    assert beta(PairTransform(7, 7)) == 0
    assert beta(PairTransform(1, 4)) == Fraction(-3, 5)


@given(
    st.fractions(min_value="1/9", max_value=9, max_denominator=9),
    st.fractions(min_value="1/9", max_value=9, max_denominator=9),
)
def test_beta_antisymmetric(m, n):
    assert beta(PairTransform(m, n)) == -beta(PairTransform(n, m))


def test_lorentz_matrix_rest_is_identity():
    matrix = lorentz_matrix(PairTransform(3, 3))
    assert matrix == ((1, 0), (0, 1))


def test_lorentz_matrix_matches_apply():
    matrix = lorentz_matrix(T41)
    coords = SpacetimeCoords(Fraction(5, 2), Fraction(3, 2))
    moved = lorentz_apply(coords, T41)
    assert moved.dt == matrix[0][0] * coords.dt + matrix[0][1] * coords.dx
    assert moved.dx == matrix[1][0] * coords.dt + matrix[1][1] * coords.dx


def test_compose_velocity_addition():
    doubled = compose_transforms(T41, T41)
    assert (doubled.m, doubled.n) == (16, 1)
    assert beta(doubled) == Fraction(15, 17)
    b = beta(T41)
    assert beta(doubled) == (b + b) / (1 + b * b)


def test_compose_identity_and_inverse():
    assert compose_transforms(T41, PairTransform(1, 1)) == T41
    assert beta(compose_transforms(T41, T41.inverse())) == 0


def test_coords_roundtrip_values():
    coords = to_coords(pair(4, 1))
    assert (coords.dt, coords.dx) == (Fraction(5, 2), Fraction(3, 2))
    back = from_coords(coords)
    assert (back.first, back.second) == (4, 1)
    rest = to_coords(pair(6, 6))
    assert (rest.dt, rest.dx) == (6, 0)


@given(st.fractions(max_denominator=30), st.fractions(max_denominator=30))
def test_coords_roundtrip_everywhere(a, b):
    source = pair(a, b)
    back = from_coords(to_coords(source))
    assert (back.first, back.second) == (a, b)


def test_lorentz_apply_matches_pair_route():
    coords = SpacetimeCoords(Fraction(5, 2), Fraction(3, 2))
    via_matrix = lorentz_apply(coords, T41)
    via_pairs = to_coords(apply_pair_transform(from_coords(coords), T41))
    assert (via_matrix.dt, via_matrix.dx) == (via_pairs.dt, via_pairs.dx)


def test_lorentz_apply_rest_identity():
    coords = SpacetimeCoords(Fraction(5, 2), Fraction(3, 2))
    same = lorentz_apply(coords, PairTransform(2, 2))
    assert (same.dt, same.dx) == (coords.dt, coords.dx)


def test_null_coords_stay_null():
    for t in (T41, PairTransform(9, 4), PairTransform(5, 2)):
        coords = SpacetimeCoords(3, 3)
        moved = lorentz_apply(coords, t)
        assert math.isclose(float(moved.dt), float(moved.dx), rel_tol=1e-12)


def test_pythagorean_join():
    assert pythagorean_join(pair(3, -3), pair(4, -4), orthogonal=True) == 25
    assert pythagorean_join(pair(3, -3), pair(0, 0), orthogonal=True) == 9


def test_pythagorean_join_validation():
    with pytest.raises(NotOrthogonalError):
        pythagorean_join(pair(3, -3), pair(4, -4), orthogonal=False)
    with pytest.raises(NotOrthogonalError):
        pythagorean_join(pair(3, 3), pair(4, -4), orthogonal=True)
    with pytest.raises(NotOrthogonalError, match=r"pair \(1, 1\) is not pure antisymmetric"):
        pythagorean_join(pair(1, 1), pair(1, -1), orthogonal=True)


def test_spherical_axis_aligned():
    dt, x, y, z = spherical_decompose(2.0, 5.0, math.pi / 2, 0.0)
    assert math.isclose(x, 5.0, abs_tol=1e-12)
    assert math.isclose(y, 0.0, abs_tol=1e-12)
    assert math.isclose(z, 0.0, abs_tol=1e-12)
    dt, x, y, z = spherical_decompose(2.0, 5.0, 0.0, 0.0)
    assert math.isclose(z, 5.0, abs_tol=1e-12)
    assert math.isclose(x, 0.0, abs_tol=1e-12)


def test_spherical_identity_random_angles():
    rng = random.Random(13)
    for _ in range(200):
        dt = rng.uniform(-5, 5)
        dr = rng.uniform(0, 10)
        theta = rng.uniform(0, math.pi)
        phi = rng.uniform(0, 2 * math.pi)
        t, x, y, z = spherical_decompose(dt, dr, theta, phi)
        assert math.isclose(
            t * t - dr * dr, t * t - x * x - y * y - z * z,
            rel_tol=1e-12, abs_tol=1e-12,
        )


def test_element_chain_distance_on_chain(lattice12):
    p = lattice12.chains["P"]
    for event in p.elements:
        assert element_chain_distance(event, p, p.elements[0]) == 0


def test_element_chain_distance_magnitude_and_ref_independence(lattice12):
    p = lattice12.chains["P"]
    x = lattice12.event(7, 3)  # spatial offset 2 from the diagonal
    values = {element_chain_distance(x, p, ref) for ref in p.elements}
    assert values == {Fraction(-2)}
    mirrored = lattice12.event(3, 7)
    values = {element_chain_distance(mirrored, p, ref) for ref in p.elements}
    assert values == {Fraction(-2)}


def test_element_chain_distance_validation(lattice12):
    p = lattice12.chains["P"]
    with pytest.raises(OutOfRangeError):
        element_chain_distance(lattice12.event(7, 3), p, lattice12.event(1, 0))
    with pytest.raises(MissingProjectionError):
        element_chain_distance(lattice12.event(0, 1), lattice12.chains["Q"],
                               lattice12.chains["Q"].elements[0])


def test_subspace_projection_in_plane(pi_lattice):
    x = pi_lattice.event(6, 10)
    y = pi_lattice.event(2, 10)
    chains = pi_lattice.chains
    assert subspace_projection(x, y, chains["P"], chains["Q"]) == 2
    assert subspace_projection(x, y, chains["P2"], chains["Q2"]) == 2
    assert subspace_projection(x, y, chains["P"], chains["Q2"]) == 2
    assert subspace_projection(y, x, chains["P"], chains["Q"]) == -2
    assert subspace_projection(x, x, chains["P"], chains["Q"]) == 0


def test_subspace_projection_coincident_chains(pi_lattice):
    p = pi_lattice.chains["P"]
    x, y = pi_lattice.event(6, 10), pi_lattice.event(2, 10)
    with pytest.raises(CoincidentChainsError):
        subspace_projection(x, y, p, p)


def test_chain_separation(pi_lattice):
    chains = pi_lattice.chains
    assert abs(chain_separation(chains["P"], chains["Q"])) == 5
    assert abs(chain_separation(chains["P2"], chains["Q2"])) == 3


def test_combine_distances_cancels_offsets():
    for h in (0.0, 1.0, 2.75):
        value = combine_projection_distances(
            math.sqrt(4 + h * h),
            math.sqrt(9 + h * h),
            math.sqrt(16 + h * h),
            math.sqrt(1 + h * h),
            5.0,
        )
        assert math.isclose(value, 2.0, rel_tol=1e-12, abs_tol=1e-12)


def test_combine_distances_exact_substitution():
    # Chains at positions 1 and 4 quantify the same displacement.
    value = combine_projection_distances(
        Fraction(1), Fraction(2), Fraction(3), Fraction(0), Fraction(3)
    )
    assert value == 2
    with pytest.raises(CoincidentChainsError):
        combine_projection_distances(1, 2, 3, 0, 0)


@given(st.fractions(max_denominator=20), st.fractions(max_denominator=20))
def test_null_scalar_iff_projection_like(a, b):
    from eventposet import IntervalKind, classify_interval

    p = pair(a, b)
    scalar = interval_scalar(p)
    kind = classify_interval(p).kind
    assert (scalar.character is Character.NULL) == (
        kind is IntervalKind.PROJECTION_LIKE
    )
    assert (scalar.character is Character.TIME_LIKE) == (
        kind is IntervalKind.CHAIN_LIKE
    )


def test_second_boost_ratio_stays_exact():
    from eventposet import (
        LatticeChainSpec,
        LatticeSpec,
        detect_linear_relation,
        generate_lattice,
        quantify_event,
    )

    spec = LatticeSpec(
        19,
        19,
        (
            LatticeChainSpec("P", 1, 1, 0, 0),
            LatticeChainSpec("S9", 9, 4, 0, 0),
        ),
    )
    lattice = generate_lattice(spec)
    s9, p = lattice.chains["S9"], lattice.chains["P"]
    t = detect_linear_relation(s9, p)
    assert t == PairTransform(9, 4)
    assert beta(t) == Fraction(5, 13)
    assert gamma(t) == Fraction(13, 12)
    scale = exact_sqrt(t.m * t.n)
    assert scale == 6
    # Each tick interval agrees with the rest chain after the unit rescale.
    for i in range(len(s9) - 1):
        tick = pair(scale, scale)
        transported = apply_pair_transform(tick, t)
        fwd, bwd = quantify_event(s9.elements[i + 1], p)
        fwd0, bwd0 = quantify_event(s9.elements[i], p)
        assert (transported.first, transported.second) == (fwd - fwd0, bwd - bwd0)
        assert tick.first * tick.second == transported.first * transported.second == 36


def test_exact_sqrt():
    assert exact_sqrt(Fraction(16, 25)) == Fraction(4, 5)
    assert exact_sqrt(Fraction(2)) is None
    assert exact_sqrt(Fraction(-4)) is None
    assert exact_sqrt(Fraction(0)) == 0


# The exact-or-float contract: a result is a Fraction exactly when the
# square root it needs is rational and its inputs are exact; otherwise it
# is the float that the plain float formula gives.
SQUARE_ROOT = PairTransform(9, 4)  # sqrt(m/n) = 3/2, gamma = 13/12
IRRATIONAL_ROOT = PairTransform(5, 2)
INPUTS = {
    "fraction": (Fraction(-9, 4), Fraction(7, 3)),
    "float": (-2.25, 7 / 3),
    "mixed": (Fraction(-9, 4), 7 / 3),
}


def _float_factor(t):
    ratio = t.m / t.n
    root = exact_sqrt(ratio)
    return float(root) if root is not None else math.sqrt(float(ratio))


def _float_gamma(t):
    b = beta(t)
    return 1.0 / math.sqrt(float(1 - b * b))


def _is_float(value, reference):
    return type(value) is float and value.hex() == reference.hex()


@pytest.mark.parametrize("inputs", sorted(INPUTS))
@pytest.mark.parametrize("t", [SQUARE_ROOT, IRRATIONAL_ROOT], ids=["square", "irrational"])
def test_transform_exact_or_float(t, inputs):
    first, second = INPUTS[inputs]
    rational = t is SQUARE_ROOT
    moved = apply_pair_transform(pair(first, second), t)
    factor = _float_factor(t)
    for got, component, want in (
        (moved.first, first, lambda: float(first) * factor),
        (moved.second, second, lambda: float(second) / factor),
    ):
        if rational and isinstance(component, Fraction):
            assert type(got) is Fraction
        else:
            assert _is_float(got, want())
    if rational and inputs == "fraction":
        assert (moved.first, moved.second) == (Fraction(-27, 8), Fraction(14, 9))

    g = gamma(t)
    (g00, bg01), (bg10, g11) = lorentz_matrix(t)
    if rational:
        assert (g, g00, g11, bg01, bg10) == (
            Fraction(13, 12), Fraction(13, 12), Fraction(13, 12),
            Fraction(5, 12), Fraction(5, 12),
        )
        assert all(type(v) is Fraction for v in (g, g00, g11, bg01, bg10))
    else:
        want_g = _float_gamma(t)
        want_bg = want_g * float(beta(t))
        assert all(_is_float(v, want_g) for v in (g, g00, g11))
        assert all(_is_float(v, want_bg) for v in (bg01, bg10))

    dt, dx = (first + second) / 2, (first - second) / 2
    boosted = lorentz_apply(SpacetimeCoords(dt, dx), t)
    if rational and inputs == "fraction":
        assert type(boosted.dt) is Fraction and type(boosted.dx) is Fraction
        assert (boosted.dt, boosted.dx) == (Fraction(13, 12) * dt + Fraction(5, 12) * dx,
                                            Fraction(5, 12) * dt + Fraction(13, 12) * dx)
    else:
        gf, bf = float(g), float(beta(t))
        for got, want in (
            (boosted.dt, gf * (float(dt) + bf * float(dx))),
            (boosted.dx, gf * (float(dx) + bf * float(dt))),
        ):
            assert type(got) is float
            assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12)


@pytest.mark.parametrize("inputs", ["fraction", "float"])
@pytest.mark.parametrize(
    "components, root, imaginary",
    [
        ((Fraction(-9, 4), Fraction(1)), Fraction(3, 2), True),
        ((Fraction(2), Fraction(1)), None, False),
        ((Fraction(-5, 3), Fraction(1, 2)), None, True),
    ],
    ids=["square", "irrational", "irrational-imaginary"],
)
def test_scalar_length_exact_or_float(components, root, imaginary, inputs):
    if inputs == "float":
        components = tuple(float(c) for c in components)
    got = scalar_length(pair(*components))
    assert got.imaginary is imaginary
    if root is not None and inputs == "fraction":
        assert type(got.value) is Fraction and got.value == root
    else:
        magnitude = abs(components[0] * components[1])
        assert _is_float(got.value, math.sqrt(float(magnitude)))


def test_lorentz_apply_rounds_each_float_result_once():
    # The float gamma of an irrational boost is read as the rational it
    # equals: a result beyond float range is a FloatRangeError, not an
    # OverflowError, and one in range is the exact value rounded once.
    with pytest.raises(FloatRangeError, match="1.060660e\\+400"):
        lorentz_apply(SpacetimeCoords(10 ** 400, 0), PairTransform(2, 1))
    with pytest.raises(FloatRangeError, match="Infinity"):
        lorentz_apply(SpacetimeCoords(math.inf, 0.0), T41)
    t = PairTransform(3, 7)
    g, b = Fraction(gamma(t)), beta(t)
    moved = lorentz_apply(SpacetimeCoords(3, 1), t)
    assert (moved.dt, moved.dx) == (float(g * (3 + b)), float(g * (1 + 3 * b)))
    exact = lorentz_apply(SpacetimeCoords(3, 1), T41)
    assert (exact.dt, exact.dx) == (Fraction(9, 2), Fraction(7, 2))


def test_interval_scalar_of_float_components_is_rounded_once():
    with pytest.raises(FloatRangeError, match="3.000000e\\+400"):
        interval_scalar(pair(1e200, 3e200))
    scalar = interval_scalar(pair(0.1, -0.2))
    assert scalar.value == float(Fraction(0.1) * Fraction(-0.2))
    assert scalar.character is Character.SPACE_LIKE


def test_scalar_length_of_float_components_is_rounded_once():
    # The float product 3e400 overflows; the root of the exact one does not.
    sigma = scalar_length(pair(1e200, -3e200))
    assert sigma.imaginary and type(sigma.value) is float
    exact = Fraction(1e200) * Fraction(3e200)
    assert abs(Fraction(sigma.value) ** 2 / exact - 1) < Fraction(1, 10 ** 15)
    with pytest.raises(FloatRangeError, match="Infinity"):
        scalar_length(pair(math.inf, 1.0))


def test_minkowski_form_of_float_components_is_rounded_once():
    # The scalar is 1.0, but dt^2 is about 2.5e399.
    with pytest.raises(FloatRangeError, match="2.500000e\\+399"):
        minkowski_form(pair(1e200, 1e-200))
    a, b = Fraction(0.1), Fraction(0.2)
    assert minkowski_form(pair(0.1, 0.2)) == (
        float(a * b), float(((a + b) / 2) ** 2), float(((a - b) / 2) ** 2))


def test_to_coords_of_float_components_is_rounded_once():
    # The float sum 2e308 overflows; the exact half-sum is 1e308.
    coords = to_coords(pair(1e308, 1e308))
    assert (coords.dt, coords.dx) == (1e308, 0.0) and type(coords.dx) is float
    with pytest.raises(FloatRangeError, match="Infinity"):
        to_coords(pair(1.0, -math.inf))
    with pytest.raises(FloatRangeError, match="NaN"):
        to_coords(pair(math.nan, 1.0))


def test_from_coords_of_float_coordinates_is_rounded_once():
    with pytest.raises(FloatRangeError, match="2.000000e\\+308"):
        from_coords(SpacetimeCoords(1e308, 1e308))
    back = from_coords(SpacetimeCoords(0.1, 0.2))
    assert (back.first, back.second) == (
        float(Fraction(0.1) + Fraction(0.2)), float(Fraction(0.1) - Fraction(0.2)))


def _chain_separation_by_search(p, q):
    """The element-pair search that chain_separation used to run."""
    for p_event in p.elements:
        for q_event in q.elements:
            try:
                return chain_distance(p, q, p_event, q_event)
            except OutOfRangeError:
                continue
    raise MissingProjectionError(
        f"chains {p.name!r} and {q.name!r} never mutually project"
    )


def _valued_chain_sets():
    yield standard_lattice(8, 8).chains
    yield projection_lattice().chains
    for n in range(1, 9):
        yield generate_simplex(n)[1]
    # Random walks with non-decreasing values, on a lattice and on DAGs.
    rng = random.Random(12)
    for seed in range(12):
        poset = (standard_lattice(6, 6).poset if seed % 2 else
                 generate_random(seed, 30, rng.choice((0.1, 0.3))))
        yield {
            f"W{i}": make_valued_chain(
                poset, walk, list(accumulate(rng.randint(0, 2) for _ in walk)), f"W{i}"
            )
            for i, walk in enumerate(maximal_chains(poset, seed, 4))
        }


def _outcome(fn, p, q):
    try:
        return fn(p, q)
    except EventPosetError as exc:
        return type(exc), str(exc)


def test_chain_separation_matches_the_element_pair_search():
    outcomes = set()
    for chains in _valued_chain_sets():
        for p, q in product(chains.values(), repeat=2):
            got = _outcome(chain_separation, p, q)
            assert got == _outcome(_chain_separation_by_search, p, q)
            outcomes.add(type(got) is tuple)
    assert outcomes == {True, False}


@pytest.mark.parametrize("value", [2.25, "9/4", Fraction(9, 4), "2.25"])
def test_exact_sqrt_reads_any_rational(value):
    assert exact_sqrt(value) == Fraction(3, 2)


def test_exact_sqrt_refuses_what_is_not_a_rational():
    with pytest.raises(FormatError):
        exact_sqrt("a")
    with pytest.raises(FloatRangeError):
        exact_sqrt(math.inf)


_TINY = sys.float_info.min
_FLOAT_EDGES = [0.0, -0.0, 5e-324, -5e-324, _TINY, -_TINY, _TINY * (1 - 2 ** -52), 1e-200,
                1.0, 0.1, -0.2, 1e200, 1e308, -1e308, sys.float_info.max]
_COMPONENTS = (st.fractions() | st.floats(allow_nan=False, allow_infinity=False)
               | st.sampled_from(_FLOAT_EDGES))
_STEPS = (st.fractions(min_value=Fraction(1, 10**6), max_value=10**6)
          | st.floats(min_value=1e-300, max_value=1e300))


def _numbers(result) -> tuple:
    """The numbers a result holds, in order: pair components, coordinates
    or the items of a tuple."""
    if isinstance(result, IntervalPair):
        return (result.first, result.second)
    if isinstance(result, SpacetimeCoords):
        return (result.dt, result.dx)
    if isinstance(result, tuple):
        return sum(map(_numbers, result), ())
    return (result,)


def _assert_matches_reference(call, reference):
    """Same values of the same types as ``reference()``, or the same error class."""
    try:
        want = _numbers(reference())
    except EventPosetError as exc:
        with pytest.raises(type(exc)):
            call()
        return
    got = _numbers(call())
    assert [(type(v), v) for v in got] == [(type(v), v) for v in want]


@settings(max_examples=400)
@given(_COMPONENTS, _COMPONENTS, _STEPS, _STEPS)
# One half normal and the other a nonzero subnormal: a function must round
# only the half it returns.
@example(math.nextafter(_TINY, 1), _TINY, 4, 1)
@example(math.nextafter(_TINY, 1), -_TINY, 4, 1)
def test_pair_and_boost_functions_match_their_reference_formulas(first, second, m, n):
    p, t = pair(first, second), PairTransform(m, n)
    m, n = t.m, t.n
    for fn, reference in (
        (length_of_pair, oracles.reference_length),
        (distance_of_pair, oracles.reference_distance),
        (decompose, oracles.reference_decompose),
        (to_coords, oracles.reference_to_coords),
        (minkowski_form, oracles.reference_minkowski),
    ):
        _assert_matches_reference(lambda: fn(p), lambda: reference(first, second))
    _assert_matches_reference(lambda: beta(t), lambda: oracles.reference_beta(m, n))
    _assert_matches_reference(lambda: gamma(t), lambda: oracles.reference_gamma(m, n))
    _assert_matches_reference(
        lambda: lorentz_apply(SpacetimeCoords(first, second), t),
        lambda: oracles.reference_lorentz_apply(first, second, m, n))

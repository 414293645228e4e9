"""Acceptance suite: one test per criterion, exact unless stated.

Each test prints its own pass line (visible with ``pytest -s`` or in the
captured output); a failed assertion is reported by pytest as usual.
"""
import math
import random
import time
from fractions import Fraction

import pytest

from eventposet import (
    Chain,
    DegenerateTransformError,
    PairTransform,
    apply_pair_transform,
    backward_project,
    beta,
    chain_distance,
    combine_projection_distances,
    compose_transforms,
    forward_project,
    from_coords,
    gamma,
    generate_random,
    generate_simplex,
    lorentz_apply,
    maximal_chains,
    minkowski_form,
    pair,
    spherical_decompose,
    standard_lattice,
    subspace_projection,
    to_coords,
)
from eventposet.cli import main as cli_main
from eventposet.verify import (
    _check_coordination,
    _check_distance_constancy,
    _check_length_additivity,
    _check_scalar_invariance,
    _check_sign_preservation,
    projection_lattice,
)
from oracles import brute_backward, brute_forward


def _report(number: int, name: str) -> None:
    print(f"[criterion {number:02d}] {name}: PASS")


def test_criterion_01_projection_oracle_equivalence():
    started = time.monotonic()
    for seed in range(200):
        poset = generate_random(seed, 16 + (seed % 49), 0.02 + (seed % 7) * 0.08)
        assert poset.event_count <= 64
        for walk in maximal_chains(poset, seed, 3):
            chain = Chain(poset, walk)
            for x in poset.events():
                assert forward_project(x, chain) == brute_forward(
                    poset, x, chain.elements
                )
                assert backward_project(x, chain) == brute_backward(
                    poset, x, chain.elements
                )
    for u_max in range(1, 11):
        for v_max in range(1, 11):
            lattice = standard_lattice(u_max, v_max)
            for vc in lattice.chains.values():
                for x in lattice.poset.events():
                    assert forward_project(x, vc.chain) == brute_forward(
                        lattice.poset, x, vc.elements
                    )
                    assert backward_project(x, vc.chain) == brute_backward(
                        lattice.poset, x, vc.elements
                    )
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _report(1, f"projection-oracle-equivalence ({elapsed:.2f}s)")


def test_criterion_02_length_additivity_and_associativity():
    chain_set = list(standard_lattice(12, 12).chains.values())
    _, simplex_chains = generate_simplex(4)
    chain_set.extend(simplex_chains.values())
    assert _check_length_additivity(chain_set) == []
    _report(2, "length-additivity-and-associativity")


def test_criterion_03_coordination_of_rest_chains():
    for size in ((8, 8), (12, 12)):
        assert _check_coordination(standard_lattice(*size)) == []
    _report(3, "coordination-of-lattice-rest-chains")


def test_criterion_04_distance_well_definedness():
    assert _check_distance_constancy(standard_lattice(12, 12)) == []
    _report(4, "chain-distance-well-definedness")


def test_criterion_05_scalar_invariance():
    violations = _check_scalar_invariance(standard_lattice(12, 12))
    assert violations == []
    moved = apply_pair_transform(pair(2, 2), PairTransform(4, 1))
    assert (moved.first, moved.second) == (4, 1)
    assert pair(2, 2).first * pair(2, 2).second == moved.first * moved.second == 4
    _report(5, "scalar-invariance")


def test_criterion_06_lorentz_equivalence():
    rng = random.Random(42)
    for _ in range(1000):
        t = PairTransform(
            Fraction(rng.randint(1, 40), rng.randint(1, 9)),
            Fraction(rng.randint(1, 40), rng.randint(1, 9)),
        )
        p = pair(
            Fraction(rng.randint(-60, 60), rng.randint(1, 9)),
            Fraction(rng.randint(-60, 60), rng.randint(1, 9)),
        )
        via_pair = to_coords(apply_pair_transform(p, t))
        via_matrix = lorentz_apply(to_coords(p), t)
        for lhs, rhs in ((via_pair.dt, via_matrix.dt), (via_pair.dx, via_matrix.dx)):
            assert math.isclose(float(lhs), float(rhs), rel_tol=1e-12, abs_tol=1e-12)
    spot = PairTransform(4, 1)
    assert beta(spot) == Fraction(3, 5)
    assert gamma(spot) == Fraction(5, 4)
    _report(6, "lorentz-equivalence")


def test_criterion_07_velocity_addition():
    rng = random.Random(43)
    for _ in range(1000):
        t1 = PairTransform(
            Fraction(rng.randint(1, 30), rng.randint(1, 9)),
            Fraction(rng.randint(1, 30), rng.randint(1, 9)),
        )
        t2 = PairTransform(
            Fraction(rng.randint(1, 30), rng.randint(1, 9)),
            Fraction(rng.randint(1, 30), rng.randint(1, 9)),
        )
        b1, b2 = beta(t1), beta(t2)
        assert beta(compose_transforms(t1, t2)) == (b1 + b2) / (1 + b1 * b2)
    assert beta(compose_transforms(PairTransform(4, 1), PairTransform(4, 1))) == Fraction(15, 17)
    _report(7, "velocity-addition")


def test_criterion_08_null_invariance():
    rng = random.Random(44)
    for _ in range(500):
        t = PairTransform(
            Fraction(rng.randint(1, 30), rng.randint(1, 9)),
            Fraction(rng.randint(1, 30), rng.randint(1, 9)),
        )
        leading = pair(Fraction(rng.randint(1, 30)), 0)
        trailing = pair(0, Fraction(rng.randint(1, 30)))
        moved = apply_pair_transform(leading, t)
        assert float(moved.second) == 0.0 and float(moved.first) != 0.0
        moved = apply_pair_transform(trailing, t)
        assert float(moved.first) == 0.0 and float(moved.second) != 0.0
    with pytest.raises(DegenerateTransformError):
        PairTransform(0, 3)
    with pytest.raises(DegenerateTransformError):
        PairTransform(3, 0)
    _report(8, "null-invariance")


def test_criterion_09_decomposition_identities():
    rng = random.Random(45)
    cases = 0
    for _ in range(10000):
        p = pair(
            Fraction(rng.randint(-99, 99), rng.randint(1, 12)),
            Fraction(rng.randint(-99, 99), rng.randint(1, 12)),
        )
        dt = (p.first + p.second) / 2
        dx = (p.first - p.second) / 2
        assert pair(dt + dx, dt - dx) == pair(p.first, p.second)
        scalar, dt2, dx2 = minkowski_form(p)
        assert scalar == dt2 - dx2
        assert scalar == p.first * p.second
        back = from_coords(to_coords(p))
        assert (back.first, back.second) == (p.first, p.second)
        cases += 1
    assert cases >= 10**4
    _report(9, "decomposition-identities")


def test_criterion_10_sign_preservation():
    for size in ((8, 8), (12, 12)):
        assert _check_sign_preservation(standard_lattice(*size)) == []
    _report(10, "sign-preservation")


def test_criterion_11_simplex_dimensionality_seed():
    for n in range(2, 9):
        _, chains = generate_simplex(n)
        names = sorted(chains)
        magnitudes = set()
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                d = chain_distance(
                    chains[a], chains[b],
                    chains[a].elements[0], chains[b].elements[0],
                )
                magnitudes.add(abs(d))
        assert len(magnitudes) == 1
        if n == 3:
            (magnitude,) = magnitudes
            assert magnitude == 1
            # Three mutually unit-distant chains cannot sit on one line:
            # collinear placement forces one distance to be the sum of
            # the other two, so at least two spatial dimensions are needed.
            assert magnitude != magnitude + magnitude
    _report(11, "simplex-dimensionality-seed")


def test_criterion_12_subspace_projection_consistency():
    lattice = projection_lattice()
    x = lattice.event(6, 10)
    y = lattice.event(2, 10)
    for a, b in (("P", "Q"), ("P2", "Q2"), ("P", "Q2"), ("P2", "Q")):
        value = subspace_projection(x, y, lattice.chains[a], lattice.chains[b])
        assert value == Fraction(2)
    # Exact scripted substitutions: same displacement measured by chain
    # pairs at positions (0, 5), (1, 4), (0, 4), (1, 5) along the axis.
    for p_pos, q_pos in ((0, 5), (1, 4), (0, 4), (1, 5)):
        value = combine_projection_distances(
            Fraction(2 - p_pos), Fraction(2 - q_pos),
            Fraction(4 - p_pos), Fraction(4 - q_pos),
            Fraction(q_pos - p_pos),
        )
        assert value == Fraction(2)
    # Off-axis displacement h adds h^2 to every squared distance and cancels.
    for h in (0.5, 1.0, 4.25):
        displaced = combine_projection_distances(
            math.sqrt(4 + h * h), math.sqrt(9 + h * h),
            math.sqrt(16 + h * h), math.sqrt(1 + h * h),
            5.0,
        )
        assert math.isclose(displaced, 2.0, rel_tol=1e-12, abs_tol=1e-12)
    _report(12, "subspace-projection-consistency")


def test_criterion_13_spherical_cartesian_identity():
    rng = random.Random(46)
    for _ in range(1000):
        dt = rng.uniform(-10, 10)
        dr = rng.uniform(0, 10)
        theta = rng.uniform(0, math.pi)
        phi = rng.uniform(0, 2 * math.pi)
        t, x, y, z = spherical_decompose(dt, dr, theta, phi)
        assert math.isclose(
            t * t - dr * dr,
            t * t - x * x - y * y - z * z,
            rel_tol=1e-12,
            abs_tol=1e-12,
        )
    _report(13, "spherical-cartesian-identity")


def test_criterion_14_verify_cli(capsys):
    started = time.monotonic()
    code = cli_main(["verify"])
    elapsed = time.monotonic() - started
    out = capsys.readouterr().out
    assert code == 0
    assert "[FAIL]" not in out
    assert elapsed < 60.0
    _report(14, f"verify-cli ({elapsed:.2f}s)")

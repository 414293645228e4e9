"""Invariant suite run by the ``verify`` CLI subcommand.

Each check sweeps a structural identity over generated posets and fails
loudly with the name of the violated invariant. The corpus is desk scale
on purpose: every sweep is exhaustive over its window, so a pass is a
proof for that configuration rather than a statistical argument.

The order-axiom and length-additivity checks first run a reduced test on
whole closure rows or chain prefixes, whose pass implies that their
exhaustive sweep finds nothing; a pass is still a proof over the whole
window. The sweep runs only when the reduced test fails, and it alone
names the violations, which show only pair by pair or split by split.
Projection monotonicity is one pass over masks grouped by image, which
both decides the check and names the violations. The projection oracle
scans each chain's elements linearly in the closure rows, fetched once per
check, rather than calling the id-checking ``Poset.leq``.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, Iterator, Mapping

from .chains import (
    Chain,
    ClosedInterval,
    ValuedChain,
    _check_type,
    _checked_chains,
    _Record,
    _set,
    interval_length,
)
from .errors import EventPosetError, MissingProjectionError, OutOfRangeError
from .generators import (
    Lattice,
    LatticeChainSpec,
    LatticeSpec,
    generate_lattice,
    generate_random,
    generate_simplex,
    maximal_chains,
    standard_lattice,
)
from .intervals import (
    GeneralizedInterval,
    IntervalKind,
    IntervalPair,
    chain_distance,
    classify_interval,
    decompose,
    interval_pair_one_chain,
    interval_pair_two_chains,
    pair,
)
from .poset import Poset, _is_index, _iter_bits, build_poset
from .projection import (
    _projection_table,
    backward_project,
    forward_project,
    quantify_event,
)
from .spacetime import (
    PairTransform,
    apply_pair_transform,
    beta,
    chain_separation,
    combine_projection_distances,
    compose_transforms,
    detect_linear_relation,
    exact_sqrt,
    from_coords,
    lorentz_apply,
    minkowski_form,
    subspace_projection,
    to_coords,
)
from .structure import (
    Betweenness,
    _collinearity_table,
    _matching_cases,
    _side,
    _slot_images,
    check_coordinated,
)
from .textio import format_poset_text, parse_poset_text


class CheckResult(_Record):
    __slots__ = _fields = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = ""):
        _set(self, "name", name)
        _set(self, "passed", passed)
        _set(self, "detail", detail)


def brute_forward(above: list[int], x: int, elements: tuple[int, ...]) -> int | None:
    """Independent oracle: linear scan for the least including element, the
    first of ``elements`` in chain order whose bit is set in ``x``'s closure
    row ``above[x]``."""
    above_x = above[x]
    for e in elements:
        if above_x >> e & 1:
            return e
    return None


def brute_backward(above: list[int], x: int, elements: tuple[int, ...]) -> int | None:
    """Independent oracle: linear scan for the greatest included element, the
    last of ``elements`` in chain order whose closure row holds ``x``."""
    for e in reversed(elements):
        if above[e] >> x & 1:
            return e
    return None


def projection_lattice() -> Lattice:
    """Window hosting the in-plane subspace-projection example.

    Rest chains sit at v-offsets 0, 2, 8, 10 (axis positions 0, 1, 4, 5);
    the window is tall enough for mid events to project onto all of them.
    """
    spec = LatticeSpec(
        11,
        17,
        (
            LatticeChainSpec("P", 1, 1, 0, 0),
            LatticeChainSpec("P2", 1, 1, 0, 2),
            LatticeChainSpec("Q2", 1, 1, 0, 8),
            LatticeChainSpec("Q", 1, 1, 0, 10),
        ),
    )
    return generate_lattice(spec)


def _aligned_rest_chains(lattice: Lattice) -> dict[str, ValuedChain]:
    """Rest chains starting on the window's past edge.

    These are pairwise coordinated over their full extents. Rest chains
    shifted into the interior (like T) pile early neighbors onto their
    first element and need caller-scoped ranges instead.
    """
    return {
        spec.name: lattice.chains[spec.name]
        for spec in lattice.spec.chains
        if spec.du == spec.dv and spec.v0 == 0
    }


def _rest_pairs(lattice: Lattice) -> Iterator[tuple[str, str, ValuedChain, ValuedChain]]:
    """``(a, b, p, q)`` for each pair of aligned rest chains, in name order."""
    rest = _aligned_rest_chains(lattice)
    for a, b in combinations(sorted(rest), 2):
        yield a, b, rest[a], rest[b]


def _listed(values: Iterable) -> str:
    """``values`` as the CLI prints them: ``[1, 3/2]``, not Fraction reprs."""
    return f"[{', '.join(map(str, values))}]"


# ---------------------------------------------------------------------------
# Individual checks. Each returns a list of violation strings.


def _check_order_axioms(poset: Poset) -> list[str]:
    # Ids come from the closure rows themselves, so order is read off the
    # rows directly instead of through the id-checking ``leq``.
    above = [poset.above_bits(x) for x in poset.events()]
    if _is_partial_order(above, poset.cover_edges()):
        return []
    bad = []
    for x, above_x in enumerate(above):
        for y in _iter_bits(above_x):
            if above[y] & ~above_x:
                bad.append(f"transitivity broken at {x} <= {y}")
            if y != x and above[y] >> x & 1:
                bad.append(f"antisymmetry broken at {x}, {y}")
    return bad


def _is_partial_order(above: list[int], covers: Iterable[tuple[int, int]]) -> bool:
    """True only if the order-axiom sweep over the rows ``above`` finds nothing.

    Listed by row size, largest first, rows holding no event listed before
    their own are antisymmetric. Each row must then equal its event joined
    with the rows of its cover hints ``(a, b)``, ``a != b``: so ``b``, in
    ``above[b]`` and so in ``above[a]``, is listed after ``a``, and from the
    last listed event up each row is its event plus closed rows, so closed
    and naming no event past the last one: no row needs a range test.
    The listing rules out hint cycles; self-loop hints would pass any row.
    """
    n = len(above)
    listed = 0
    for x in sorted(range(n), key=lambda x: -above[x].bit_count()):
        if above[x] & listed:
            return False
        listed |= 1 << x
    joined = [1 << x for x in range(n)]
    for a, b in covers:
        # Hints that name no event, or name their own event, join nothing.
        if _is_index(a, n) and _is_index(b, n) and a != b:
            joined[a] |= above[b]
    return joined == above


def _check_reduction_roundtrip(poset: Poset) -> list[str]:
    rebuilt = build_poset(poset.event_count, poset.cover_edges())
    for x in poset.events():
        if rebuilt.above_bits(x) != poset.above_bits(x):
            return [f"closure changed after reduction round-trip at event {x}"]
    return []


def _check_projection_oracle(poset: Poset, chains: Iterable[Chain]) -> list[str]:
    # Ids come from the poset and its chains, so the oracles read the closure
    # rows directly instead of through the id-checking ``leq``.
    above = [poset.above_bits(x) for x in poset.events()]
    bad = []
    for chain in chains:
        elements = chain.elements
        for x in poset.events():
            if forward_project(x, chain) != brute_forward(above, x, elements):
                bad.append(f"forward projection of {x} onto {chain.name!r}")
            if backward_project(x, chain) != brute_backward(above, x, elements):
                bad.append(f"backward projection of {x} onto {chain.name!r}")
    return bad


def _check_projection_monotone(poset: Poset, chains: Iterable[Chain]) -> list[str]:
    # Projections are chain elements and the swept pairs come from closure
    # rows, so order is read off the rows directly.
    above = [poset.above_bits(x) for x in poset.events()]
    bad = []
    for chain in chains:
        forwards, backwards = _projection_table(chain)
        forward_breaking, backward_breaking = _breaking_masks(above, forwards, backwards)
        for x, above_x in enumerate(above):
            fx, bx = forwards[x], backwards[x]
            if fx is not None and bx is not None and not above[bx] >> fx & 1:
                bad.append(f"projection sandwich broken at {x} on {chain.name!r}")
            ahead = above_x & forward_breaking[fx]
            behind = above_x & backward_breaking[bx]
            if ahead or behind:
                for y in _iter_bits(ahead | behind):
                    if ahead >> y & 1:
                        bad.append(f"forward monotonicity broken at {x} <= {y}")
                    if behind >> y & 1:
                        bad.append(f"backward monotonicity broken at {x} <= {y}")
    return bad


def _breaking_masks(
    above: list[int], *tables: list[int | None]
) -> list[dict[int | None, int]]:
    """For each table and each image ``e`` in it, the table's events whose
    image is not in ``above[e]``: an event ``x`` imaged at ``e`` breaks
    monotonicity at each ``y`` of ``above[x]`` in that mask. An absent image
    breaks nothing and is in no mask.

    Which images each image's row misses is found once, over the union of
    the tables' images: a chain's two valid tables both have its elements
    as images, and a doctored table's other images are in the union too.
    """
    groups = []
    for images in tables:
        imaged: dict[int, int] = {}
        for y, c in enumerate(images):
            if c is not None:
                imaged[c] = imaged.get(c, 0) | 1 << y
        groups.append(imaged)
    union = set().union(*groups)
    missed = {e: [c for c in union if not above[e] >> c & 1] for e in union}
    # The groups are disjoint, so their sum is their union.
    return [
        {None: 0, **{e: sum(imaged.get(c, 0) for c in missed[e]) for e in imaged}}
        for imaged in groups
    ]


def _check_collinearity_unique(lattice: Lattice) -> list[str]:
    # Elements lying on one of the chains sit on the boundary between
    # "between" and that chain's side, and genuinely satisfy both identity
    # blocks; the uniqueness claim is about elements off the chains.
    bad = []
    for a, b in combinations(sorted(lattice.chains), 2):
        p, q = lattice.chains[a], lattice.chains[b]
        on_chain = set(p.elements) | set(q.elements)
        if set(p.elements) & set(q.elements):
            # Intersecting chains degenerate the same way: projections
            # landing on a shared element satisfy two identity blocks.
            continue
        images = _slot_images(p.chain, q.chain)
        for x, slots in enumerate(zip(*images)):
            if x in on_chain or None in slots:
                continue
            matched = list(_matching_cases(images, slots))
            if len(matched) > 1:
                bad.append(
                    f"event {x} matches cases "
                    f"{[c.value for c in matched]} against {a}, {b}"
                )
    return bad


def _check_self_duality(lattice: Lattice) -> list[str]:
    bad = []
    reversed_poset = lattice.poset.reverse()
    for a, b in combinations(sorted(lattice.chains), 2):
        p, q = lattice.chains[a], lattice.chains[b]
        p_rev = Chain(reversed_poset, p.elements[::-1], p.name)
        q_rev = Chain(reversed_poset, q.elements[::-1], q.name)
        direct_table = _collinearity_table(p.chain, q.chain)
        dual_table = _collinearity_table(p_rev, q_rev)
        for x, (want, got) in enumerate(zip(direct_table, dual_table)):
            if want is None or got is None:
                continue
            # Order reversal maps the cases with a side to themselves (IV and V swap).
            if _side(want) is not Betweenness.NONE and got is not want:
                bad.append(
                    f"event {x} flips from {want.value} to {got.value} "
                    f"under order reversal against {a}, {b}"
                )
    return bad


def _check_length_additivity(chains: Iterable[ValuedChain]) -> list[str]:
    chains = list(chains)
    if all(_lengths_additive(vc) for vc in chains):
        return []
    bad = []
    for vc in chains:
        n = len(vc)
        for i in range(n):
            for k in range(i, n):
                whole = interval_length(ClosedInterval(vc, i, k))
                for j in range(i, k + 1):
                    left = interval_length(ClosedInterval(vc, i, j))
                    right = interval_length(ClosedInterval(vc, j, k))
                    if left + right != whole:
                        bad.append(f"additivity broken on {vc.name!r} at {i},{j},{k}")
    return bad


def _lengths_additive(vc: ValuedChain) -> bool:
    """True only if the additivity sweep over ``vc`` finds nothing.

    Only the splits ``(0, j, k)`` are tested. With exact lengths they give
    every other split: ``len(i, j) + len(j, k)`` is
    ``[len(0, j) - len(0, i)] + [len(0, k) - len(0, j)] = len(i, k)``.
    """
    n = len(vc)
    origin = [interval_length(ClosedInterval(vc, 0, k)) for k in range(n)]
    for j in range(n):
        for k in range(j, n):
            length = interval_length(ClosedInterval(vc, j, k))
            if type(length) not in (int, Fraction) or origin[j] + length != origin[k]:
                return False
    return True


def _check_coordination(lattice: Lattice) -> list[str]:
    bad = []
    for a, b, p, q in _rest_pairs(lattice):
        try:
            if not check_coordinated(p, q):
                bad.append(f"rest chains {a}, {b} not coordinated")
            if not check_coordinated(q, p):
                bad.append(f"coordination not symmetric for {a}, {b}")
        except EventPosetError as exc:
            bad.append(f"coordination check failed for {a}, {b}: {exc}")
        doubled = q.revalued([2 * v for v in q.values])
        try:
            if check_coordinated(p, doubled):
                bad.append(f"double-rate revaluation of {b} still coordinated")
        except EventPosetError:
            pass
    # An interior rest chain coordinates over scoped ranges: the early
    # neighbors piling onto its first element are excluded by the window.
    if "T" in lattice.chains and "P" in _aligned_rest_chains(lattice):
        p, t = lattice.chains["P"], lattice.chains["T"]
        try:
            if not check_coordinated(p, t, (2, len(t) + 1), (0, len(t) - 1)):
                bad.append("P and T not coordinated over scoped ranges")
        except EventPosetError as exc:
            bad.append(f"scoped coordination P, T failed: {exc}")
    return bad


def _check_linear_relation(lattice: Lattice) -> list[str]:
    """Boosted chains against the rest chain sharing their origin.

    A boosted chain recedes from that chain for its whole extent, so the
    per-step projection lengths are exactly (du, dv). Against rest chains
    it crosses inside the window, the discrete projections wobble around
    the crossing and no exact relation is expected.
    """
    bad = []
    rest = {
        (spec.u0, spec.v0): lattice.chains[spec.name]
        for spec in lattice.spec.chains
        if spec.du == spec.dv
    }
    for spec in lattice.spec.chains:
        if spec.du == spec.dv:
            continue
        s = lattice.chains[spec.name]
        origin_rest = rest.get((spec.u0, spec.v0))
        if origin_rest is None:
            continue
        try:
            relation = detect_linear_relation(s, origin_rest)
        except EventPosetError as exc:
            bad.append(f"{spec.name} vs {origin_rest.name}: {exc}")
            continue
        if (relation.m, relation.n) != (Fraction(spec.du), Fraction(spec.dv)):
            bad.append(
                f"{spec.name} vs {origin_rest.name}: detected "
                f"({relation.m}, {relation.n}), expected ({spec.du}, {spec.dv})"
            )
        self_relation = detect_linear_relation(s, s)
        if (self_relation.m, self_relation.n) != (Fraction(1), Fraction(1)):
            bad.append(f"{spec.name} vs itself: {self_relation}")
    return bad


def _check_distance_constancy(lattice: Lattice) -> list[str]:
    bad = []
    for a, b, p, q in _rest_pairs(lattice):
        seen: set[Fraction] = set()
        for p_event in p.elements:
            for q_event in q.elements:
                try:
                    seen.add(chain_distance(p, q, p_event, q_event))
                except OutOfRangeError:
                    continue
        if len(seen) > 1:
            bad.append(f"distance between {a}, {b} varies: {_listed(sorted(seen))}")
        if not seen:
            bad.append(f"distance between {a}, {b} never defined")
    return bad


def _between_events(p: ValuedChain, q: ValuedChain) -> list[int]:
    """Events between (P, Q), in event order; unclassifiable ones are not."""
    table = _collinearity_table(p.chain, q.chain)
    return [x for x, case in enumerate(table) if _side(case) is Betweenness.BETWEEN]


def _two_chain_pairs(
    lattice: Lattice,
) -> Iterator[tuple[str, str, ValuedChain, ValuedChain, GeneralizedInterval, IntervalPair]]:
    """``(a, b, p, q, interval, two_chain_pair)`` for every interval between
    each pair of aligned rest chains; the one-chain partner is the caller's."""
    for a, b, p, q in _rest_pairs(lattice):
        between = _between_events(p, q)
        for xa in between:
            for xb in between:
                interval = GeneralizedInterval(xa, xb)
                yield a, b, p, q, interval, interval_pair_two_chains(interval, p, q)


def _check_two_vs_one_chain(lattice: Lattice) -> list[str]:
    bad = []
    for a, b, p, _, interval, two in _two_chain_pairs(lattice):
        one = interval_pair_one_chain(interval, p, Betweenness.BETWEEN, Betweenness.BETWEEN)
        if (two.first, two.second) != (one.first, one.second):
            bad.append(
                f"[{interval.a},{interval.b}] splits {a},{b}: two-chain {two} vs "
                f"one-chain {one}"
            )
    return bad


def _check_scalar_invariance(lattice: Lattice) -> list[str]:
    """Closed intervals on each chain, quantified by every other chain.

    Rest chains agree directly. A boosted chain's own tick units differ
    by the factor sqrt(mn); its self-quantification is rescaled to those
    units before comparing, which is exactly the pair-transform route.
    """
    bad = []
    rest = _aligned_rest_chains(lattice)
    boosted = [s.name for s in lattice.spec.chains if s.du != s.dv]
    for name in boosted:
        s = lattice.chains[name]
        for rest_name, p in rest.items():
            try:
                transform = detect_linear_relation(s, p)
            except EventPosetError:
                continue
            scale = exact_sqrt(transform.m * transform.n)
            if scale is None:
                bad.append(f"{name} vs {rest_name}: tick scalar not a perfect square")
                continue
            coords = [quantify_event(x, p) for x in s.elements]
            for i in range(len(s)):
                for j in range(i, len(s)):
                    self_pair = pair(
                        scale * (s.values[j] - s.values[i]),
                        scale * (s.values[j] - s.values[i]),
                    )
                    fwd = coords[j][0] - coords[i][0]
                    bwd = coords[j][1] - coords[i][1]
                    transported = apply_pair_transform(self_pair, transform)
                    if (transported.first, transported.second) != (fwd, bwd):
                        bad.append(
                            f"{name}[{i}:{j}] transports to {transported}, "
                            f"but {rest_name} measures ({fwd}, {bwd})"
                        )
                    if self_pair.first * self_pair.second != fwd * bwd:
                        bad.append(
                            f"{name}[{i}:{j}] scalar differs from {rest_name}'s"
                        )
    # Rest-chain pairs quantify every shared interval identically.
    for a, b, _, q, interval, left in _two_chain_pairs(lattice):
        right = interval_pair_one_chain(interval, q, Betweenness.BETWEEN, Betweenness.BETWEEN)
        if left.first * left.second != right.first * right.second:
            bad.append(f"scalar of [{interval.a},{interval.b}] differs between {a} and {b}")
    return bad


def _check_sign_preservation(lattice: Lattice) -> list[str]:
    """Intervals between two or more rest-chain pairs keep their kind."""
    chain_pairs = [(p, q) for _, _, p, q in _rest_pairs(lattice)]
    # The indices of the pairs each event lies between.
    pairs_of: dict[int, set[int]] = {}
    for k, (p, q) in enumerate(chain_pairs):
        for x in _between_events(p, q):
            pairs_of.setdefault(x, set()).add(k)
    shared = sorted(x for x, ks in pairs_of.items() if len(ks) > 1)
    bad = []
    for xa in shared:
        for xb in shared:
            common = pairs_of[xa] & pairs_of[xb]
            if xa == xb or len(common) < 2:
                continue
            interval = GeneralizedInterval(xa, xb)
            kinds = {
                classify_interval(interval_pair_two_chains(interval, *chain_pairs[k])).kind
                for k in common
            }
            if IntervalKind.CHAIN_LIKE in kinds and IntervalKind.ANTICHAIN_LIKE in kinds:
                bad.append(f"interval [{xa},{xb}] flips between chain pairs")
    return bad


def _check_simplex() -> list[str]:
    bad = []
    for n in range(2, 9):
        _, chains = generate_simplex(n)
        magnitudes = set()
        for a, b in combinations(sorted(chains), 2):
            try:
                magnitudes.add(abs(chain_separation(chains[a], chains[b])))
            except MissingProjectionError:
                bad.append(f"simplex N={n}: no distance between {a}, {b}")
        if len(magnitudes) > 1:
            bad.append(f"simplex N={n}: unequal distances {_listed(sorted(magnitudes))}")
        elif n == 3 and magnitudes and magnitudes != {Fraction(1)}:
            bad.append(f"simplex N=3: distance {min(magnitudes)} instead of 1")
    return bad


def _check_transform_layer() -> list[str]:
    bad = []
    rng = random.Random(5)

    def random_fraction(lo=1, hi=12):
        return Fraction(rng.randint(lo, hi), rng.randint(lo, hi))

    for _ in range(300):
        t = PairTransform(random_fraction(), random_fraction())
        t2 = PairTransform(random_fraction(), random_fraction())
        b1, b2 = beta(t), beta(t2)
        if beta(compose_transforms(t, t2)) != (b1 + b2) / (1 + b1 * b2):
            bad.append(f"velocity addition broken for {t}, {t2}")
        p = pair(rng.randint(-9, 9), rng.randint(-9, 9))
        transported = apply_pair_transform(p, t)
        via_coords = lorentz_apply(to_coords(p), t)
        back = to_coords(transported)
        for lhs, rhs in ((via_coords.dt, back.dt), (via_coords.dx, back.dx)):
            if not math.isclose(float(lhs), float(rhs), rel_tol=1e-12, abs_tol=1e-12):
                bad.append(f"pair and coordinate routes disagree for {p} under {t}")
        null = pair(rng.randint(1, 9), 0)
        moved = apply_pair_transform(null, t)
        if not (moved.first != 0 and float(moved.second) == 0.0):
            bad.append(f"null pair {null} lost its zero component under {t}")
        sym, anti = decompose(p)
        if (sym.first + anti.first, sym.second + anti.second) != (p.first, p.second):
            bad.append(f"decomposition does not re-add for {p}")
    return bad


def _check_minkowski() -> list[str]:
    bad = []
    rng = random.Random(6)
    for _ in range(1000):
        p = pair(
            Fraction(rng.randint(-50, 50), rng.randint(1, 9)),
            Fraction(rng.randint(-50, 50), rng.randint(1, 9)),
        )
        scalar, dt2, dx2 = minkowski_form(p)
        if scalar != dt2 - dx2:
            bad.append(f"quadratic form identity broken for {p}")
        roundtrip = from_coords(to_coords(p))
        if (roundtrip.first, roundtrip.second) != (p.first, p.second):
            bad.append(f"coordinate round-trip broken for {p}")
    return bad


def _check_subspace_projection(lattice: Lattice) -> list[str]:
    bad = []
    x = lattice.event(6, 10)
    y = lattice.event(2, 10)
    expected = Fraction(2)
    for a, b in (("P", "Q"), ("P2", "Q2"), ("P", "Q2"), ("P2", "Q")):
        value = subspace_projection(x, y, lattice.chains[a], lattice.chains[b])
        if value != expected:
            bad.append(f"projection via {a},{b} gave {value}, expected {expected}")
    # Off-axis displacement cancels: each squared distance gains h^2, and
    # the antisymmetric combination removes it.
    for h in (1.0, 3.5, 2.6):
        displaced = combine_projection_distances(
            math.sqrt(4 + h * h),
            math.sqrt(9 + h * h),
            math.sqrt(16 + h * h),
            math.sqrt(1 + h * h),
            5.0,
        )
        if not math.isclose(displaced, 2.0, rel_tol=1e-12, abs_tol=1e-12):
            bad.append(f"off-axis displacement h={h} shifted projection to {displaced}")
    return bad


def _check_text_roundtrip(poset: Poset, chains: dict[str, ValuedChain]) -> list[str]:
    text = format_poset_text(poset, chains)
    reparsed, rechains = parse_poset_text(text)
    if reparsed.event_count != poset.event_count:
        return ["event count changed across text round-trip"]
    for x in poset.events():
        if reparsed.above_bits(x) != poset.above_bits(x):
            return [f"closure changed across text round-trip at {x}"]
    if set(rechains) != set(chains):
        return ["chain set changed across text round-trip"]
    for name, vc in chains.items():
        if (rechains[name].elements, rechains[name].values) != (vc.elements, vc.values):
            return [f"chain {name!r} changed across text round-trip"]
    return []


# ---------------------------------------------------------------------------


def run_for(
    poset: Poset,
    chains: Mapping[str, ValuedChain] | None,
    report: Callable[[str], None] = print,
) -> list[CheckResult]:
    """Run the structure-agnostic checks against one poset.

    Used by ``verify --input/--gen``; generator-specific sweeps (scalar
    invariance, coordination, simplex distances) need the built-in
    configurations and run through :func:`run_all` instead. The three
    chain checks run only when the poset comes with chains.
    """
    _check_type(poset, Poset, "the poset to verify")
    chains = _checked_chains(chains, poset)
    checks = [
        ("order-axioms", _check_order_axioms, poset),
        ("reduction-roundtrip", _check_reduction_roundtrip, poset),
        ("text-roundtrip", _check_text_roundtrip, poset, chains),
    ]
    if chains:
        chain_list = [vc.chain for vc in chains.values()]
        checks += [
            ("projection-oracle", _check_projection_oracle, poset, chain_list),
            ("projection-monotonicity", _check_projection_monotone, poset, chain_list),
            ("interval-length-additivity", _check_length_additivity, chains.values()),
        ]
    return _run_checks(checks, report)


def run_all(report: Callable[[str], None] = print) -> list[CheckResult]:
    """Run every invariant check over the built-in corpus, all built before the first check."""
    small = standard_lattice(8, 8)
    big = standard_lattice(12, 12)
    projection = projection_lattice()
    randoms = [generate_random(seed, 40, density) for seed, density in
               ((0, 0.08), (1, 0.2), (2, 0.5))]

    checks = []
    for label, poset in (
        ("lattice-8x8", small.poset),
        ("lattice-12x12", big.poset),
        *((f"random-{i}", p) for i, p in enumerate(randoms)),
    ):
        checks += [
            (f"order-axioms[{label}]", _check_order_axioms, poset),
            (f"reduction-roundtrip[{label}]", _check_reduction_roundtrip, poset),
        ]
    for label, lattice in (("lattice-8x8", small), ("lattice-12x12", big)):
        poset, chains = lattice.poset, [vc.chain for vc in lattice.chains.values()]
        checks += [
            (f"projection-oracle[{label}]", _check_projection_oracle, poset, chains),
            (f"projection-monotonicity[{label}]", _check_projection_monotone, poset, chains),
        ]
    for i, poset in enumerate(randoms):
        walks = maximal_chains(poset, seed=i, count=3)
        chains = [Chain(poset, elems, f"W{j}") for j, elems in enumerate(walks)]
        checks.append((f"projection-oracle[random-{i}]", _check_projection_oracle, poset, chains))

    checks += [
        ("interval-length-additivity", _check_length_additivity, big.chains.values()),
        ("collinearity-uniqueness", _check_collinearity_unique, small),
        ("collinearity-self-duality", _check_self_duality, small),
        ("coordination-rest-chains", _check_coordination, big),
        ("linear-relation-detection", _check_linear_relation, big),
        ("chain-distance-constancy", _check_distance_constancy, big),
        ("two-chain-vs-one-chain", _check_two_vs_one_chain, small),
        ("scalar-invariance", _check_scalar_invariance, big),
        ("sign-preservation", _check_sign_preservation, big),
        ("simplex-equal-distances", _check_simplex),
        ("transform-layer", _check_transform_layer),
        ("minkowski-identity", _check_minkowski),
        ("subspace-projection", _check_subspace_projection, projection),
        ("text-roundtrip", _check_text_roundtrip, big.poset, big.chains),
    ]
    return _run_checks(checks, report)


def _run_checks(checks: list[tuple], report: Callable[[str], None]) -> list[CheckResult]:
    """Run each ``(name, sweep, *args)`` row in order, one reported line each.

    A row whose sweep raises an ``EventPosetError`` fails with its message,
    and the rows after it still run.
    """
    results = []
    for name, sweep, *args in checks:
        try:
            violations = sweep(*args)
        except EventPosetError as exc:
            violations = [str(exc)]
        result = CheckResult(name, not violations, "; ".join(violations[:3]))
        results.append(result)
        status = "PASS" if result.passed else "FAIL"
        suffix = f": {result.detail}" if result.detail else ""
        report(f"[{status}] {name}{suffix}")
    return results

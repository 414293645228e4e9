from collections import Counter
from fractions import Fraction
from itertools import accumulate, count

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from eventposet import (
    Chain,
    build_poset,
    chain_poset,
    make_valued_chain,
    maximal_chains,
    standard_lattice,
    verify,
)
from eventposet.errors import (
    MissingProjectionError,
    NotCompatibleError,
    NotLinearlyRelatedError,
    OutOfRangeError,
)
from eventposet.poset import Poset
from eventposet.projection import _projection_table
from eventposet.spacetime import PairTransform


def test_two_chain_sweeps_catch_a_wrong_one_chain_pair(monkeypatch):
    # Both sweeps over two-chain pairs compare against a one-chain pair;
    # shifting that pair must make each of them report violations.
    original = verify.interval_pair_one_chain

    def shifted(*args):
        got = original(*args)
        return oracles.replaced(got, first=got.first + 1)

    assert verify._check_two_vs_one_chain(standard_lattice(8, 8)) == []
    assert verify._check_scalar_invariance(standard_lattice(12, 12)) == []
    monkeypatch.setattr(verify, "interval_pair_one_chain", shifted)
    assert verify._check_two_vs_one_chain(standard_lattice(8, 8)) != []
    assert verify._check_scalar_invariance(standard_lattice(12, 12)) != []


def test_sign_preservation_catches_a_flipped_chain_pair(monkeypatch):
    # On 12x12 the between sets of (P, R) and (Q, R) coincide, so every
    # interval between them is quantified twice; flipping the sign of one
    # pair's first component must surface in ``run_all``'s report.
    original = verify.interval_pair_two_chains

    def flipped(interval, p, q):
        got = original(interval, p, q)
        if (p.name, q.name) == ("Q", "R"):
            return oracles.replaced(got, first=-got.first)
        return got

    monkeypatch.setattr(verify, "interval_pair_two_chains", flipped)
    lines = []
    verify.run_all(report=lines.append)
    failures = [line for line in lines if line.startswith("[FAIL] sign-preservation")]
    assert len(failures) == 1
    assert failures[0].startswith("[FAIL] sign-preservation: interval [")
    assert "flips between chain pairs" in failures[0]


def test_order_axioms_sweep_reports_a_doctored_closure():
    # Row 0 holds 1 but not 2, which row 1 holds; events 3 and 4 sit
    # above each other.
    rows = [0b00011, 0b00110, 0b00100, 0b11000, 0b11000]
    bad = verify._check_order_axioms(Poset(5, rows, ()))
    assert "transitivity broken at 0 <= 1" in bad
    assert "antisymmetry broken at 3, 4" in bad


def test_projection_monotonicity_sweep_reports_a_doctored_table():
    lattice = standard_lattice(6, 6)
    chain = Chain(lattice.poset, lattice.chains["P"].elements, "P")
    assert verify._check_projection_monotone(lattice.poset, [chain]) == []
    forward, backward = chain._projections
    # Send the top event's forward projection to the chain's first element,
    # below the projections of the events under it.
    top = lattice.poset.event_count - 1
    doctored = forward.copy()
    doctored[top] = 0
    object.__setattr__(chain, "_projections", (doctored, backward))
    bad = verify._check_projection_monotone(lattice.poset, [chain])
    assert f"forward monotonicity broken at 1 <= {top}" in bad
    assert f"projection sandwich broken at {top} on 'P'" in bad


def test_collinearity_sweeps_report_a_doctored_table(monkeypatch):
    from eventposet.structure import CollinearityCase, _collinearity_table, _slot_images

    lattice = standard_lattice(8, 8)
    assert verify._check_collinearity_unique(lattice) == []
    assert verify._check_self_duality(lattice) == []
    p, q = lattice.chains["P"], lattice.chains["Q"]
    table = _collinearity_table(p.chain, q.chain)
    off_chains = set(lattice.poset.events()) - set(p.elements) - set(q.elements)
    x = min(x for x in off_chains if table[x] is CollinearityCase.II)
    # Two blocks at once, then a side the dual does not share.
    slots_of_x = tuple(image[x] for image in _slot_images(p.chain, q.chain))
    matching = verify._matching_cases

    def doctored(images, slots):
        return [*matching(images, slots), *[CollinearityCase.III] * (slots == slots_of_x)]

    monkeypatch.setattr(verify, "_matching_cases", doctored)
    bad = verify._check_collinearity_unique(lattice)
    assert f"event {x} matches cases ['II', 'III'] against P, Q" in bad
    table[x] = CollinearityCase.I
    bad = verify._check_self_duality(lattice)
    assert f"event {x} flips from I to II under order reversal against P, Q" in bad


@st.composite
def _posets(draw):
    # Relations respect a random order of the ids, so ids are not ranks.
    n = draw(st.integers(1, 12))
    ids = draw(st.permutations(range(n)))
    event = st.integers(0, n - 1)
    raw = draw(st.lists(st.tuples(event, event), max_size=3 * n))
    return build_poset(n, [(ids[min(a, b)], ids[max(a, b)]) for a, b in raw if a != b])


@st.composite
def _doctored_orders(draw):
    poset = draw(_posets())
    n = poset.event_count
    rows = [poset.above_bits(x) for x in poset.events()]
    covers = list(poset.cover_edges()) if draw(st.booleans()) else []
    event = st.integers(0, n - 1)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["flip", "cycle", "diagonal", "hint"]))
        x, y = draw(event), draw(event)
        if kind == "flip":
            rows[x] ^= 1 << y
        elif kind == "cycle":
            rows[x] = rows[y] = rows[x] | rows[y]
        elif kind == "diagonal":
            rows[x] &= ~(1 << x)
        else:
            covers.append((x, y))
    return Poset(n, rows, tuple(covers))


@settings(max_examples=300, deadline=None)
@given(_doctored_orders())
# A closed 2-cycle breaks only antisymmetry; a cover hint over a row that
# misses an event above it breaks only transitivity. Hinted to join to its
# own rows, the 2-cycle is refused only by the listing; row 0 of the third
# poset would equal its join if a self-loop hint were joined.
@example(Poset(2, [0b11, 0b11], ()))
@example(Poset(3, [0b011, 0b110, 0b100], ((0, 1), (1, 2))))
@example(Poset(2, [0b11, 0b11], ((0, 1), (1, 0))))
@example(Poset(3, [0b011, 0b110, 0b100], ((0, 0), (1, 2))))
def test_order_axioms_match_the_reference_sweep(poset):
    assert verify._check_order_axioms(poset) == oracles.order_axioms_sweep(poset)


@st.composite
def _doctored_projections(draw):
    poset = draw(_posets())
    n = poset.event_count
    walks = maximal_chains(poset, seed=draw(st.integers(0, 5)), count=2)
    chains = [Chain(poset, walk, f"W{i}") for i, walk in enumerate(walks)]
    event = st.integers(0, n - 1)
    for chain in chains:
        forward, backward = (list(images) for images in _projection_table(chain))
        off_chain = [e for e in poset.events() if chain.index_of(e) is None]
        for _ in range(draw(st.integers(0, 2))):
            images = draw(st.sampled_from([forward, backward]))
            x = draw(event)
            kind = draw(st.sampled_from(["none", "earlier", "off-chain"]))
            if kind == "none":
                images[x] = None
            elif kind == "earlier":
                i = len(chain) if images[x] is None else chain.index_of(images[x])
                if i:
                    images[x] = chain.elements[draw(st.integers(0, i - 1))]
            elif off_chain:
                images[x] = draw(st.sampled_from(off_chain))
        object.__setattr__(chain, "_projections", (forward, backward))
    if draw(st.booleans()):
        # Rows doctored under the chains: the check reads the poset's rows.
        rows = [poset.above_bits(x) for x in poset.events()]
        rows[draw(event)] ^= 1 << draw(event)
        poset = Poset(n, rows, poset.cover_edges())
    return poset, chains


@settings(max_examples=300, deadline=None)
@given(_doctored_projections())
def test_projection_monotonicity_matches_the_reference_sweep(data):
    poset, chains = data
    assert verify._check_projection_monotone(poset, chains) == (
        oracles.projection_monotone_sweep(poset, chains)
    )


@settings(max_examples=300, deadline=None)
@given(_doctored_projections())
def test_projection_oracle_matches_the_leq_sweep(data):
    poset, chains = data
    assert verify._check_projection_oracle(poset, chains) == (
        oracles.projection_oracle_sweep(poset, chains)
    )


def test_projection_oracle_reads_each_row_once_and_never_calls_leq(monkeypatch):
    # Ids come from the poset, so they are not checked again in the scans:
    # the check reads each closure row once and makes no leq call.
    lattice = standard_lattice(12, 12)
    poset = lattice.poset
    calls = Counter()

    def counted(name):
        original = getattr(Poset, name)

        def call(self, *args):
            calls[name] += 1
            return original(self, *args)
        return call

    for name in ("leq", "above_bits"):
        monkeypatch.setattr(Poset, name, counted(name))
    chains = [vc.chain for vc in lattice.chains.values()]
    assert verify._check_projection_oracle(poset, chains) == []
    assert calls["leq"] == 0
    assert calls["above_bits"] <= poset.event_count


@st.composite
def _lengths(draw):
    chains = []
    for name in ("A", "B")[: draw(st.integers(1, 2))]:
        n = draw(st.integers(1, 7))
        halves = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
        values = [Fraction(h, 2) for h in accumulate(halves)]
        chains.append(make_valued_chain(chain_poset(n), range(n), values, name))
    kind = draw(st.sampled_from(["exact", "offset", "square", "float"]))
    lo = draw(st.integers(0, 6))
    hi = draw(st.integers(lo, 6))
    offset = Fraction(draw(st.sampled_from([-2, -1, 1, 2])), 3)
    original = verify.interval_length

    def length(interval):
        got = original(interval)
        if kind == "offset" and (interval.lo_index, interval.hi_index) == (lo, hi):
            return got + offset
        if kind == "square":
            return got * got
        if kind == "float":
            return float(got)
        return got

    return chains, length


@settings(max_examples=300, deadline=None)
@given(_lengths())
def test_length_additivity_matches_the_reference_sweep(data):
    chains, length = data
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "interval_length", length)
        assert verify._check_length_additivity(chains) == (
            oracles.length_additivity_sweep(chains)
        )


def test_passing_inputs_never_reach_a_sweep(monkeypatch):
    # The reduced tests decide every check on a valid 4096-event lattice:
    # no sweep walks a row, and lengths are read at most three times per
    # interval of each chain.
    lattice = standard_lattice(64, 64)
    calls = 0
    original = verify.interval_length

    def counted(interval):
        nonlocal calls
        calls += 1
        return original(interval)

    def no_sweep(mask):
        raise AssertionError("a sweep ran on a passing input")

    monkeypatch.setattr(verify, "_iter_bits", no_sweep)
    monkeypatch.setattr(verify, "interval_length", counted)
    chains = [vc.chain for vc in lattice.chains.values()]
    assert len(chains) == 5
    assert verify._check_order_axioms(lattice.poset) == []
    assert verify._check_projection_monotone(lattice.poset, chains) == []
    assert verify._check_length_additivity(lattice.chains.values()) == []
    assert calls <= 3 * sum(len(vc) * (len(vc) + 1) // 2 for vc in lattice.chains.values())


def _last_value_99(elements, values):
    return elements, values[:-1] + ["99"]


def _first_element_only(elements, values):
    return elements[:1], values[:1]


@pytest.mark.parametrize("doctor", [_last_value_99, _first_element_only])
def test_text_roundtrip_compares_chain_data(monkeypatch, lattice12, doctor):
    original = verify.format_poset_text

    def doctored(poset, chains):
        lines = original(poset, chains).splitlines()
        for i, line in enumerate(lines):
            if line.startswith("chain P "):
                elements, values = line.removeprefix("chain P ").split(" : ")
                elements, values = doctor(elements.split(), values.split())
                lines[i] = f"chain P {' '.join(elements)} : {' '.join(values)}"
        return "\n".join(lines) + "\n"

    assert verify._check_text_roundtrip(lattice12.poset, lattice12.chains) == []
    monkeypatch.setattr(verify, "format_poset_text", doctored)
    assert verify._check_text_roundtrip(lattice12.poset, lattice12.chains) == [
        "chain 'P' changed across text round-trip"
    ]


def _run_all(report):
    return verify.run_all(report=report)


def _run_for(report):
    lattice = standard_lattice(8, 8)
    return verify.run_for(lattice.poset, lattice.chains, report=report)


def _constant(value):
    return lambda original: lambda *args: value


def _varying(original):
    values = count(1)
    return lambda *args: Fraction(next(values))


def _swapped_relation(original):
    def swapped(*args):
        got = original(*args)
        return PairTransform(got.n, got.m)
    return swapped


def _swapped_composition(original):
    return lambda t1, t2: PairTransform(t1.m * t2.n, t1.n * t2.m)


def _wrong_dt2(original):
    def wrong(p):
        scalar, dt2, dx2 = original(p)
        return scalar, dt2 + 1, dx2
    return wrong


def _first_plus_one(original):
    def shifted(p, t):
        got = original(p, t)
        return oracles.replaced(got, first=got.first + 1)
    return shifted


def _one_event_poset(original):
    return lambda text: (chain_poset(1), {})


def _empty_rows(original):
    return lambda event_count, relations: Poset(event_count, [0] * event_count, ())


# (check, primitive in verify's namespace, mutant of it, suite to run)
_MUTANTS = [
    ("coordination-rest-chains", "check_coordinated", _constant(False), _run_all),
    ("linear-relation-detection", "detect_linear_relation", _swapped_relation, _run_all),
    ("chain-distance-constancy", "chain_distance", _varying, _run_all),
    ("simplex-equal-distances", "chain_separation", _varying, _run_all),
    ("transform-layer", "compose_transforms", _swapped_composition, _run_all),
    ("minkowski-identity", "minkowski_form", _wrong_dt2, _run_all),
    ("subspace-projection", "subspace_projection", _constant(0), _run_all),
    ("scalar-invariance", "apply_pair_transform", _first_plus_one, _run_all),
    ("text-roundtrip", "parse_poset_text", _one_event_poset, _run_all),
    ("projection-oracle", "brute_forward", _constant(None), _run_all),
    ("projection-oracle", "brute_forward", _constant(None), _run_for),
    ("projection-oracle", "brute_backward", _constant(None), _run_all),
    ("projection-oracle", "brute_backward", _constant(None), _run_for),
    ("reduction-roundtrip", "build_poset", _empty_rows, _run_all),
]


def _mutant_ids(rows):
    """``check-suite`` for each row; a later row of the same check and suite
    adds its primitive, so the first row's id stays as it was."""
    ids = []
    for name, attribute, _, run in rows:
        key = f"{name}-{run.__name__[1:]}"
        ids.append(f"{key}-{attribute}" if key in ids else key)
    return ids


@pytest.mark.parametrize("name, attribute, mutant, run", _MUTANTS, ids=_mutant_ids(_MUTANTS))
def test_every_check_can_fail(monkeypatch, name, attribute, mutant, run):
    # One wrong primitive in verify's namespace must fail the check built on it.
    monkeypatch.setattr(verify, attribute, mutant(getattr(verify, attribute)))
    lines = []
    run(lines.append)
    assert any(line.startswith(f"[FAIL] {name}") for line in lines), lines


def _raising(error):
    def mutant(original):
        def raise_it(*args):
            raise error("mutant")
        return raise_it
    return mutant


def _second_plus_one(original):
    def shifted(p, t):
        got = original(p, t)
        return oracles.replaced(got, second=got.second + 1)
    return shifted


def _unbalanced_decomposition(original):
    def unbalanced(p):
        sym, anti = original(p)
        return oracles.replaced(sym, first=sym.first + 1), anti
    return unbalanced


def _from_coords_plus_one(original):
    def shifted(c):
        got = original(c)
        return oracles.replaced(got, first=got.first + 1)
    return shifted


def _dt_plus_one(original):
    def shifted(p):
        got = original(p)
        return oracles.replaced(got, dt=got.dt + 1)
    return shifted


def _antichain_poset(original):
    def reparsed(text):
        poset, chains = original(text)
        return build_poset(poset.event_count, []), chains
    return reparsed


def _no_chains(original):
    return lambda text: (original(text)[0], {})


def _oracle(lattice):
    return verify._check_projection_oracle(
        lattice.poset, [vc.chain for vc in lattice.chains.values()]
    )


def _text(lattice):
    return verify._check_text_roundtrip(lattice.poset, lattice.chains)


def _simplex(lattice):
    return verify._check_simplex()


def _transforms(lattice):
    return verify._check_transform_layer()


def _minkowski(lattice):
    return verify._check_minkowski()


def _subspace(lattice):
    return verify._check_subspace_projection(verify.projection_lattice())


# (check run on the 12x12 lattice, primitive in verify's namespace, mutant of
# it, one message the check must return); checks that build their own
# inputs ignore the lattice.
_MESSAGES = [
    pytest.param(_oracle, "brute_backward", _constant(None),
                 "backward projection of 0 onto 'P'", id="oracle-backward"),
    pytest.param(verify._check_coordination, "check_coordinated", _raising(NotCompatibleError),
                 "coordination check failed for P, Q: mutant", id="coordination-raises"),
    pytest.param(verify._check_coordination, "check_coordinated", _constant(True),
                 "double-rate revaluation of Q still coordinated", id="coordination-double-rate"),
    pytest.param(verify._check_coordination, "check_coordinated", _raising(NotCompatibleError),
                 "scoped coordination P, T failed: mutant", id="coordination-scoped"),
    pytest.param(verify._check_linear_relation, "detect_linear_relation",
                 _raising(NotLinearlyRelatedError), "S vs P: mutant", id="relation-raises"),
    pytest.param(verify._check_linear_relation, "detect_linear_relation",
                 _constant(PairTransform(4, 1)), "S vs itself: (4, 1)", id="relation-self"),
    pytest.param(verify._check_distance_constancy, "chain_distance", _raising(OutOfRangeError),
                 "distance between P, Q never defined", id="distance-undefined"),
    pytest.param(verify._check_distance_constancy, "chain_distance", _varying,
                 f"distance between P, R varies: {list(range(97, 145))}", id="distance-varies"),
    pytest.param(verify._check_scalar_invariance, "exact_sqrt", _constant(None),
                 "S vs P: tick scalar not a perfect square", id="scalar-irrational"),
    pytest.param(_simplex, "chain_separation", _raising(MissingProjectionError),
                 "simplex N=2: no distance between C1, C2", id="simplex-missing"),
    pytest.param(_simplex, "chain_separation", _constant(Fraction(2)),
                 "simplex N=3: distance 2 instead of 1", id="simplex-not-one"),
    pytest.param(_simplex, "chain_separation", _varying,
                 "simplex N=3: unequal distances [2, 3, 4]", id="simplex-unequal"),
    pytest.param(_transforms, "compose_transforms", _swapped_composition,
                 "velocity addition broken for (2, 2), (1, 11/9)", id="transform-velocity"),
    pytest.param(_transforms, "to_coords", _dt_plus_one,
                 "pair and coordinate routes disagree for (8, -6) under (11, 3/2)",
                 id="transform-routes"),
    pytest.param(_transforms, "apply_pair_transform", _second_plus_one,
                 "null pair (4, 0) lost its zero component under (2, 2)", id="transform-null"),
    pytest.param(_transforms, "decompose", _unbalanced_decomposition,
                 "decomposition does not re-add for (-9, 5)", id="transform-decompose"),
    pytest.param(_minkowski, "from_coords", _from_coords_plus_one,
                 "coordinate round-trip broken for (23/2, 12/5)", id="minkowski-roundtrip"),
    pytest.param(_subspace, "combine_projection_distances", _constant(0.0),
                 "off-axis displacement h=1.0 shifted projection to 0.0", id="subspace-off-axis"),
    pytest.param(_text, "parse_poset_text", _antichain_poset,
                 "closure changed across text round-trip at 0", id="text-closure"),
    pytest.param(_text, "parse_poset_text", _no_chains,
                 "chain set changed across text round-trip", id="text-chain-set"),
]


@pytest.mark.parametrize("check, attribute, mutant, message", _MESSAGES)
def test_every_failure_message_is_reached(monkeypatch, lattice12, check, attribute, mutant,
                                          message):
    # Each message is built once, so a slip in its f-string shows here;
    # transforms and rationals print as the CLI prints them.
    monkeypatch.setattr(verify, attribute, mutant(getattr(verify, attribute)))
    assert message in check(lattice12)


def test_a_raising_check_fails_and_the_rest_still_run():
    # The text format cannot carry the chain name "a b", so the writer
    # refuses it and text-roundtrip fails with the refusal.
    p = chain_poset(3)
    lines = []
    results = verify.run_for(
        p, {"a b": make_valued_chain(p, (0, 1, 2), (0, 1, 2), "a b")}, lines.append
    )
    assert lines == [
        "[PASS] order-axioms",
        "[PASS] reduction-roundtrip",
        "[FAIL] text-roundtrip: chain name 'a b' is not one token of the text format",
        "[PASS] projection-oracle",
        "[PASS] projection-monotonicity",
        "[PASS] interval-length-additivity",
    ]
    assert [r.passed for r in results] == [True, True, False, True, True, True]


def test_a_raising_check_does_not_stop_run_all(monkeypatch):
    # A relation found where none exists makes scalar-invariance quantify
    # S's events on a rest chain they do not project onto, which raises.
    monkeypatch.setattr(verify, "detect_linear_relation", lambda s, p: PairTransform(1, 1))
    lines = []
    verify.run_all(report=lines.append)
    assert len(lines) == 31
    assert [line for line in lines if line.startswith("[FAIL]")] == [
        "[FAIL] linear-relation-detection: S vs P: detected (1, 1), expected (4, 1)",
        "[FAIL] scalar-invariance: event 0 is forward-only with respect to chain 'Q'",
    ]


def test_simplex_reports_only_refusals_when_no_distance_is_defined(monkeypatch):
    # With every separation refused there are no magnitudes to compare, so
    # neither "unequal" nor "instead of 1" applies.
    refused = _raising(MissingProjectionError)(verify.chain_separation)
    monkeypatch.setattr(verify, "chain_separation", refused)
    violations = verify._check_simplex()
    assert violations and all(": no distance between " in v for v in violations)
    (result,) = verify._run_checks([("simplex-equal-distances", verify._check_simplex)],
                                   lambda line: None)
    assert result.detail == (
        "simplex N=2: no distance between C1, C2; simplex N=3: no distance between C1, C2; "
        "simplex N=3: no distance between C1, C3"
    )
    assert "unequal distances []" not in result.detail

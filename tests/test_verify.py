import dataclasses

from eventposet import Chain, standard_lattice, verify
from eventposet.poset import Poset


def test_two_chain_sweeps_catch_a_wrong_one_chain_pair(monkeypatch):
    # Both sweeps over two-chain pairs compare against a one-chain pair;
    # shifting that pair must make each of them report violations.
    original = verify.interval_pair_one_chain

    def shifted(*args):
        got = original(*args)
        return dataclasses.replace(got, first=got.first + 1)

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
            return dataclasses.replace(got, first=-got.first)
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


def test_collinearity_sweeps_report_a_doctored_table():
    from eventposet.structure import CollinearityCase, _collinearity_table

    lattice = standard_lattice(8, 8)
    assert verify._check_collinearity_unique(lattice) == []
    assert verify._check_self_duality(lattice) == []
    p, q = lattice.chains["P"], lattice.chains["Q"]
    table = _collinearity_table(p.chain, q.chain)
    off_chains = set(lattice.poset.events()) - set(p.elements) - set(q.elements)
    x = min(x for x in off_chains if table[x] == (CollinearityCase.II,))
    # Two blocks at once, then a side the dual does not share.
    table[x] = (CollinearityCase.II, CollinearityCase.III)
    bad = verify._check_collinearity_unique(lattice)
    assert f"event {x} matches cases ['II', 'III'] against P, Q" in bad
    table[x] = (CollinearityCase.I,)
    bad = verify._check_self_duality(lattice)
    assert f"event {x} flips from I to II under order reversal against P, Q" in bad

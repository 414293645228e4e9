import dataclasses

from eventposet import standard_lattice, verify


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

"""The contract of the package's immutable value classes (records).

One instance of each of the 14 records: fields cannot be assigned or
deleted, copies and pickles are equal records, equality and hashing leave
out the caches and ``Lattice.chains``, and ``repr`` shows every field in
the dataclass style the records have always printed. Importing the CLI
loads none of the modules that ``dataclasses`` pulls in.
"""
import copy
import inspect
import io
import pickle
import subprocess
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

import eventposet
from eventposet import (
    Betweenness,
    Character,
    ClosedInterval,
    EventPosetError,
    FrozenRecordError,
    GeneralizedInterval,
    IntervalClassification,
    IntervalKind,
    IntervalPair,
    Lattice,
    LatticeChainSpec,
    PairBasis,
    PairTransform,
    ScalarLength,
    ScalarResult,
    SpacetimeCoords,
    betweenness_of,
    chain_distance,
    forward_project,
    make_valued_chain,
    standard_lattice,
)
from eventposet.verify import CheckResult

LATTICE = standard_lattice(4, 4)
_P = LATTICE.chains["P"]
RECORDS = {
    "Chain": _P.chain,
    "ValuedChain": _P,
    "ClosedInterval": ClosedInterval(_P, 0, 2),
    "LatticeChainSpec": LatticeChainSpec("S", 4, 1, v0=2),
    "LatticeSpec": LATTICE.spec,
    "Lattice": LATTICE,
    "GeneralizedInterval": GeneralizedInterval(0, 15),
    "IntervalPair": IntervalPair(Fraction(3, 2), 0.5, PairBasis.ONE_CHAIN_STRADDLE, (_P, "Q")),
    "IntervalClassification": IntervalClassification(IntervalKind.CHAIN_LIKE, True),
    "ScalarResult": ScalarResult(Fraction(3), Character.TIME_LIKE),
    "ScalarLength": ScalarLength(Fraction(1, 2), True),
    "SpacetimeCoords": SpacetimeCoords(1, Fraction(-1, 2)),
    "PairTransform": PairTransform(4, 1),
    "CheckResult": CheckResult("order-axioms", False, "x"),
}

_CHAIN_P = "Chain(poset=Poset(events=16, covers=24), elements=(0, 5, 10, 15), name='P')"
_VALUED_P = (
    f"ValuedChain(chain={_CHAIN_P}, "
    "values=(Fraction(0, 1), Fraction(1, 1), Fraction(2, 1), Fraction(3, 1)))"
)
_SPEC = "LatticeSpec(u_max=4, v_max=4, chains=(LatticeChainSpec(name='P', du=1, dv=1, u0=0, v0=0),))"

# As the frozen dataclasses printed them.
GOLDEN_REPRS = {
    "Chain": _CHAIN_P,
    "ValuedChain": _VALUED_P,
    "ClosedInterval": f"ClosedInterval(valued_chain={_VALUED_P}, lo_index=0, hi_index=2)",
    "LatticeChainSpec": "LatticeChainSpec(name='S', du=4, dv=1, u0=0, v0=2)",
    "LatticeSpec": _SPEC,
    "Lattice": f"Lattice(spec={_SPEC}, poset=Poset(events=16, covers=24), chains={{'P': {_VALUED_P}}})",
    "GeneralizedInterval": "GeneralizedInterval(a=0, b=15)",
    "IntervalPair": (
        "IntervalPair(first=Fraction(3, 2), second=0.5, "
        "basis=<PairBasis.ONE_CHAIN_STRADDLE: 'one-chain-straddle'>, "
        f"chains=({_VALUED_P}, 'Q'))"
    ),
    "IntervalClassification": "IntervalClassification(kind=<IntervalKind.CHAIN_LIKE: 'chain-like'>, pure=True)",
    "ScalarResult": "ScalarResult(value=Fraction(3, 1), character=<Character.TIME_LIKE: 'time-like'>)",
    "ScalarLength": "ScalarLength(value=Fraction(1, 2), imaginary=True)",
    "SpacetimeCoords": "SpacetimeCoords(dt=Fraction(1, 1), dx=Fraction(-1, 2))",
    "PairTransform": "PairTransform(m=Fraction(4, 1), n=Fraction(1, 1))",
    "CheckResult": "CheckResult(name='order-axioms', passed=False, detail='x')",
}

records = pytest.mark.parametrize("name", RECORDS)


def _fields(record) -> list[str]:
    return list(inspect.signature(type(record)).parameters)


def _pickled(record, protocol=pickle.DEFAULT_PROTOCOL):
    """A pickle round trip of ``record`` that keeps the lattice's poset
    itself: posets compare by identity, so a record on a copied poset is
    another record."""
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol)
    pickler.persistent_id = lambda obj: "poset" if obj is LATTICE.poset else None
    pickler.dump(record)
    buffer.seek(0)
    unpickler = pickle.Unpickler(buffer)
    unpickler.persistent_load = lambda pid: LATTICE.poset
    return unpickler.load()


def _deep_copied(record):
    return copy.deepcopy(record, {id(LATTICE.poset): LATTICE.poset})


def test_every_record_class_is_covered():
    assert set(RECORDS) == set(GOLDEN_REPRS)
    assert {type(record).__name__ for record in RECORDS.values()} == set(RECORDS)


@records
def test_fields_cannot_be_assigned_or_deleted(name):
    record = RECORDS[name]
    for field in [*_fields(record), "extra"]:
        with pytest.raises(FrozenRecordError, match=f"cannot assign to field {field!r}") as assigned:
            setattr(record, field, 1)
        with pytest.raises(FrozenRecordError, match=f"cannot delete field {field!r}") as deleted:
            delattr(record, field)
        for error in (assigned.value, deleted.value):
            assert isinstance(error, EventPosetError) and isinstance(error, AttributeError)
    assert repr(record) == GOLDEN_REPRS[name]


@records
@pytest.mark.parametrize("clone", [copy.copy, _deep_copied, _pickled, partial(_pickled, protocol=0)],
                         ids=["copy", "deepcopy", "pickle", "pickle-0"])
def test_copies_and_pickles_are_equal_records(name, clone):
    record = RECORDS[name]
    cloned = clone(record)
    assert cloned is not record
    assert type(cloned) is type(record)
    assert cloned == record and hash(cloned) == hash(record)
    assert repr(cloned) == GOLDEN_REPRS[name]
    with pytest.raises(FrozenRecordError):
        setattr(cloned, _fields(record)[0], 1)


@records
def test_repr_shows_every_field_as_before(name):
    assert repr(RECORDS[name]) == GOLDEN_REPRS[name]


@records
def test_records_equal_only_records_of_their_class(name):
    record = RECORDS[name]
    fields = tuple(getattr(record, field) for field in _fields(record))
    assert record.__eq__(fields) is NotImplemented
    assert record != fields
    assert record == type(record)(*fields)
    assert hash(record) == hash(type(record)(*fields))


def test_equality_and_hash_leave_out_caches_and_lattice_chains(lattice12):
    p, q = (lattice12.chains[k] for k in "PQ")
    cached = make_valued_chain(p.poset, p.elements, p.values, "P")
    fresh = make_valued_chain(p.poset, p.elements, p.values, "P")
    assert forward_project(lattice12.event(6, 4), cached.chain) is not None
    assert betweenness_of(lattice12.event(6, 4), cached.chain, q.chain) is Betweenness.BETWEEN
    chain_distance(cached, q, cached.elements[0], q.elements[0])
    assert cached.chain._projections is not None and cached.chain._collinearities
    assert cached._coordinations
    for with_caches, without in ((cached, fresh), (cached.chain, fresh.chain)):
        assert with_caches == without
        assert hash(with_caches) == hash(without)
        assert repr(with_caches) == repr(without)

    others = Lattice(lattice12.spec, lattice12.poset, {})
    assert others == lattice12 and hash(others) == hash(lattice12)
    assert Lattice(lattice12.spec, standard_lattice(12, 12).poset, lattice12.chains) != lattice12


def test_importing_the_cli_loads_no_dataclass_machinery():
    # ``dataclasses`` and the modules it imports cost about 20 ms of every
    # command-line call. ``-S`` keeps site-packages from loading any of them.
    heavy = ["dataclasses", "inspect", "ast", "dis", "tokenize"]
    src = str(Path(eventposet.__file__).parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import eventposet.cli; "
        f"print([m for m in {heavy!r} if m in sys.modules])"
    )
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          timeout=60, check=True)
    assert done.stdout.strip() == "[]"

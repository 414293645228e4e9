"""The collinearity table of a chain pair against the per-event reference.

``oracles.matching_cases`` derives an event's cases afresh from its
projections; the table classifies every event against an ordered chain
pair at once and is what the library reads.
"""
import gc
import pickle
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from eventposet import (
    Betweenness,
    Chain,
    CollinearityCase,
    DifferentChainsError,
    InvalidIdError,
    MissingProjectionError,
    betweenness_of,
    build_poset,
    collinearity_case,
    is_properly_collinear,
    make_valued_chain,
    maximal_chains,
    standard_lattice,
)
from eventposet import structure
from eventposet.structure import _collinearity_table, _matching_cases, _slot_images
from eventposet.verify import run_all
from oracles import bad_ids, matching_cases

_SIDE = {
    CollinearityCase.I: Betweenness.P_SIDE,
    CollinearityCase.II: Betweenness.BETWEEN,
    CollinearityCase.III: Betweenness.Q_SIDE,
}


def _reference(x, p, q):
    """``matching_cases`` of x, or the message of the error it raises."""
    try:
        return matching_cases(x, p, q)
    except MissingProjectionError as exc:
        return str(exc)


def _classified(x, p, q):
    """What the public readers say of x, in the reference's terms."""
    try:
        case = collinearity_case(x, p, q)
    except MissingProjectionError as exc:
        message = str(exc)
        for reader in (betweenness_of, is_properly_collinear):
            with pytest.raises(MissingProjectionError) as info:
                reader(x, p, q)
            assert str(info.value) == message
        return message
    assert betweenness_of(x, p, q) is _SIDE.get(case, Betweenness.NONE)
    assert is_properly_collinear(x, p, q) is (case in _SIDE)
    return case


def _agrees(x, p, q):
    reference = _reference(x, p, q)
    entry = _collinearity_table(p, q)[x]
    images = _slot_images(p, q)
    slots = tuple(image[x] for image in images)
    if isinstance(reference, str):
        assert entry is None and None in slots
        assert _classified(x, p, q) == reference
    else:
        assert tuple(_matching_cases(images, slots)) == reference
        want = reference[0] if reference else CollinearityCase.NOT_COLLINEAR
        assert isinstance(entry, CollinearityCase) and entry is want
        assert _classified(x, p, q) is want


def _random_relations(draw):
    n = draw(st.integers(1, 24))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda ab: ab[0] < ab[1]
    )
    return n, draw(st.lists(pairs, max_size=60))


def _grid_relations(draw):
    # A u x v grid with some covers dropped: most events project both ways
    # onto walks through it, so most of the table is classified.
    u, v = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    covers = [(i * v + j, (i + 1) * v + j) for i in range(u - 1) for j in range(v)]
    covers += [(i * v + j, i * v + j + 1) for i in range(u) for j in range(v - 1)]
    dropped = draw(st.sets(st.sampled_from(covers), max_size=len(covers) // 5)) if covers else set()
    return u * v, [c for c in covers if c not in dropped]


@st.composite
def permuted_poset_with_chains(draw):
    # Relations respect a random order of the ids, so chain ids are not
    # ascending; each chain is a run of a walk along cover edges.
    n, relations = draw(st.sampled_from([_random_relations, _grid_relations]))(draw)
    ids = draw(st.permutations(range(n)))
    poset = build_poset(n, [(ids[a], ids[b]) for a, b in relations])
    runs = []
    for walk in maximal_chains(poset, seed=draw(st.integers(0, 5)), count=2):
        lo = draw(st.integers(0, len(walk) - 1))
        hi = len(walk) - 1 - draw(st.integers(0, len(walk) - 1 - lo))
        runs.append(walk[lo : hi + 1])
    return poset, runs[0], runs[-1]


@settings(max_examples=150, deadline=None)
@given(permuted_poset_with_chains())
def test_table_matches_per_event_reference(data):
    poset, p_run, q_run = data
    # The dual poset carries the same chains, read in the other direction.
    for host, p_elements, q_elements in (
        (poset, p_run, q_run),
        (poset.reverse(), p_run[::-1], q_run[::-1]),
    ):
        p, q = Chain(host, p_elements, "P"), Chain(host, q_elements, "Q")
        for first, second in ((p, q), (q, p), (p, p)):
            for x in host.events():
                _agrees(x, first, second)
        for bad, message in bad_ids(host.event_count):
            for reader in (collinearity_case, betweenness_of, is_properly_collinear):
                with pytest.raises(InvalidIdError, match=message):
                    reader(bad, p, q)


def test_table_matches_reference_on_lattices_and_their_duals():
    for size in (8, 12):
        lattice = standard_lattice(size, size)
        reversed_poset = lattice.poset.reverse()
        chains = [vc.chain for vc in lattice.chains.values()]
        duals = [Chain(reversed_poset, c.elements[::-1], c.name) for c in chains]
        for family in (chains, duals):
            for p in family:
                for q in family:
                    for x in lattice.poset.events():
                        _agrees(x, p, q)


def test_table_refuses_chains_of_different_posets(lattice8, lattice12):
    p, q = lattice8.chains["P"].chain, lattice12.chains["Q"].chain
    with pytest.raises(DifferentChainsError):
        collinearity_case(0, p, q)


def test_concurrent_first_builds_agree(lattice12):
    # Threads race on one chain pair's first table; each reads no table or
    # a complete one, and every answer is the reference's.
    poset = lattice12.poset
    p_elements, q_elements = (lattice12.chains[k].elements for k in "PQ")
    reference = Chain(poset, p_elements), Chain(poset, q_elements)
    expected = [_reference(x, *reference) for x in poset.events()]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            p, q = Chain(poset, p_elements), Chain(poset, q_elements)
            barrier = threading.Barrier(6)

            def sweep():
                barrier.wait(timeout=10)
                got = []
                for x in poset.events():
                    try:
                        case = collinearity_case(x, p, q)
                    except MissingProjectionError as exc:
                        got.append(str(exc))
                        continue
                    got.append(case)
                return got

            with ThreadPoolExecutor(6) as pool:
                futures = [pool.submit(sweep) for _ in range(6)]
                results = [f.result(timeout=60) for f in futures]
            want = [
                e if isinstance(e, str) else (e[0] if e else CollinearityCase.NOT_COLLINEAR)
                for e in expected
            ]
            assert all(result == want for result in results)
            assert len(p._collinearities) == 1
    finally:
        sys.setswitchinterval(switch)


def test_table_leaves_chain_identity_alone(lattice12):
    p, q = (lattice12.chains[k] for k in "PQ")
    built = Chain(p.poset, p.elements, p.name)
    fresh = Chain(p.poset, p.elements, p.name)
    assert betweenness_of(lattice12.event(6, 4), built, q.chain) is Betweenness.BETWEEN
    assert built._collinearities and not fresh._collinearities
    assert built == fresh
    assert hash(built) == hash(fresh)
    assert repr(built) == repr(fresh)


def test_filled_tables_pickle_and_classify_the_same(lattice12):
    p = make_valued_chain(lattice12.poset, lattice12.chains["P"].elements,
                          lattice12.chains["P"].values, "P")
    q = Chain(lattice12.poset, lattice12.chains["Q"].elements, "Q")
    before = [_reference(x, p.chain, q) for x in lattice12.poset.events()]
    for x in lattice12.poset.events():
        _agrees(x, p.chain, q)
    assert p.chain._collinearities
    for original in (p, p.chain):
        copied = pickle.loads(pickle.dumps(original))
        chain = getattr(copied, "chain", copied)
        assert (chain.elements, chain.name) == (p.elements, p.name)
        assert chain._collinearities == {}
        partner = Chain(chain.poset, q.elements, "Q")
        assert [_reference(x, chain, partner) for x in chain.poset.events()] == before
        for x in chain.poset.events():
            _agrees(x, chain, partner)


def test_table_holds_partners_weakly(lattice12):
    p = Chain(lattice12.poset, lattice12.chains["P"].elements, "P")
    q = Chain(lattice12.poset, lattice12.chains["Q"].elements, "Q")
    assert betweenness_of(lattice12.event(6, 4), p, q) is Betweenness.BETWEEN
    assert len(p._collinearities) == 1
    partner = weakref.ref(q)
    del q
    gc.collect()
    assert partner() is None
    assert p._collinearities == {}


def test_run_all_builds_each_table_once_and_never_calls_the_reference(monkeypatch):
    # The reference lives in tests/oracles.py, out of the library's reach.
    built = []
    build = structure._build_collinearity_table

    def counted_build(p, q):
        built.append((p, q))  # holds the chains, so their ids stay unique
        return build(p, q)

    monkeypatch.setattr(structure, "_build_collinearity_table", counted_build)
    results = run_all(report=lambda _: None)
    assert all(r.passed for r in results)
    keys = [(id(p), id(q)) for p, q in built]
    assert built
    assert len(keys) == len(set(keys))

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from eventposet import (
    EventPosetError,
    FormatError,
    InvalidArgumentError,
    InvalidIdError,
    NotAChainError,
    NotIsotonicError,
    chain_poset,
    format_poset_text,
    make_valued_chain,
    parse_poset_text,
)
from eventposet.verify import projection_lattice


SAMPLE = """\
# a three-event chain with one observer
events 3
rel 0 1
rel 1 2
chain P 0 1 2 : 0 1/2 2
"""


def test_parse_sample():
    poset, chains = parse_poset_text(SAMPLE)
    assert poset.event_count == 3
    assert poset.leq(0, 2)
    assert chains["P"].values == (Fraction(0), Fraction(1, 2), Fraction(2))


def test_roundtrip_preserves_closure(lattice12):
    text = format_poset_text(lattice12.poset, lattice12.chains)
    poset, chains = parse_poset_text(text)
    assert poset.event_count == lattice12.poset.event_count
    for x in poset.events():
        assert poset.above_bits(x) == lattice12.poset.above_bits(x)
    assert set(chains) == set(lattice12.chains)
    for name, vc in chains.items():
        assert vc.elements == lattice12.chains[name].elements
        assert vc.values == lattice12.chains[name].values


def test_roundtrip_projection_lattice():
    lattice = projection_lattice()
    text = format_poset_text(lattice.poset, lattice.chains)
    poset, _ = parse_poset_text(text)
    for x in poset.events():
        assert poset.above_bits(x) == lattice.poset.above_bits(x)


@pytest.mark.parametrize("name", ["", "a b", "a#b", ":", "a\x1cb", "a\u2028b"])
def test_writer_refuses_a_chain_name_it_cannot_read_back(name):
    poset = chain_poset(2)
    chains = {name: make_valued_chain(poset, (0, 1), (0, 1), name)}
    with pytest.raises(InvalidArgumentError, match=f"chain name {re.escape(repr(name))} "):
        format_poset_text(poset, chains)
    # One token of the grammar reads back, keywords and colons included.
    chains = {"a:b": chains[name], "chain": chains[name]}
    assert set(parse_poset_text(format_poset_text(poset, chains))[1]) == set(chains)


def test_unknown_keyword_rejected():
    with pytest.raises(FormatError):
        parse_poset_text("events 2\nedge 0 1\n")


def test_missing_header_rejected():
    with pytest.raises(FormatError):
        parse_poset_text("rel 0 1\n")
    with pytest.raises(FormatError):
        parse_poset_text("# only comments\n")


def test_duplicate_header_rejected():
    with pytest.raises(FormatError):
        parse_poset_text("events 2\nevents 2\n")


def test_malformed_lines_rejected():
    with pytest.raises(FormatError):
        parse_poset_text("events 2\nrel 0\n")
    with pytest.raises(FormatError):
        parse_poset_text("events 2\nrel 0 x\n")
    with pytest.raises(FormatError):
        parse_poset_text("events two\n")


def test_chain_line_validation():
    with pytest.raises(FormatError):
        parse_poset_text("events 3\nchain P 0 1 : 0\n")
    with pytest.raises(FormatError):
        parse_poset_text("events 3\nchain P 0 1 0 1\n")
    with pytest.raises(FormatError):
        parse_poset_text(
            "events 3\nrel 0 1\nchain P 0 1 : 0 1\nchain P 0 1 : 0 1\n"
        )


def test_chain_values_parse_fractions():
    _, chains = parse_poset_text("events 2\nrel 0 1\nchain P 0 1 : -1/2 3/4\n")
    assert chains["P"].values == (Fraction(-1, 2), Fraction(3, 4))


_TOKEN = st.one_of(
    st.integers(-3, 12).map(str),
    st.sampled_from(
        ["events", "rel", "chain", ":", "#", "1/2", "-1/3", "3/0", "0.5", "x", "5000"]
    ),
    st.text(max_size=4),
)
_LINE = st.lists(_TOKEN, max_size=8).map(" ".join)


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.text(), st.lists(_LINE, max_size=10).map("\n".join)))
def test_arbitrary_text_parses_or_raises_a_package_error(text):
    try:
        poset, chains = parse_poset_text(text)
    except EventPosetError:
        return
    assert poset.event_count >= 0
    assert all(vc.poset is poset for vc in chains.values())


@pytest.mark.parametrize(
    "text, message",
    [
        ("rel 0 1\n", "line 1: 'rel' before 'events' header"),
        ("\n# a comment\n\nrel 0\n", "line 4: 'rel' before 'events' header"),
        ("events 2\n\nrel 0\n", "line 3: expected 'rel A B'"),
        ("events 2\n# x\nrel 0 1 1\n", "line 3: expected 'rel A B'"),
        ("events 2\nrel # 0 1\n", "line 2: expected 'rel A B'"),
        ("events 2\nrel 0 1\n\nrel x 1\n", "line 4: 'x' is not an integer"),
        ("events 2\n  # c\nrel 0 y\n", "line 3: 'y' is not an integer"),
        ("events 2\nrel x y\n", "line 2: 'x' is not an integer"),
        ("events 2\nrel 1.0 0\n", "line 2: '1.0' is not an integer"),
        ("events 2\nrel 0 0x1\n", "line 2: '0x1' is not an integer"),
        ("events 2\nrel 0 " + "1" * 5000 + "\n", "line 2: '" + "1" * 5000 + "' is not an integer"),
    ],
)
def test_each_rel_refusal_names_its_line_and_token(text, message):
    with pytest.raises(FormatError) as exc:
        parse_poset_text(text)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("events 2\nchain A 1 0 : 0 1\n", NotAChainError,
         "line 2: chain 'A': elements 1 and 0 at positions 0,1 are not strictly increasing"),
        ("events 2\n\nchain A 0 2 : 0 1\n", InvalidIdError,
         "line 3: chain 'A': event id 2 not in 0..1"),
        ("events 2\nrel 0 1\nchain A 0 1 : 1 0\n", NotIsotonicError,
         "line 3: chain 'A': values 1 > 0 at positions 0,1"),
        ("events 2\nrel 0 1\nchain A 0 : 0\n# A again\nchain A 1 : 0\n", FormatError,
         "line 5: duplicate chain name 'A'"),
    ],
)
def test_each_chain_refusal_names_its_line_and_chain(text, error, message):
    # Chains are built after the poset; their refusals used to name no line.
    with pytest.raises(error) as exc:
        parse_poset_text(text)
    assert type(exc.value) is error
    assert str(exc.value) == message


def test_a_parse_converts_rel_ids_without_the_int_helper(monkeypatch, lattice12):
    from eventposet import textio

    tokens = []
    parse_int = textio._parse_int

    def counted(token, lineno):
        tokens.append(token)
        return parse_int(token, lineno)

    monkeypatch.setattr(textio, "_parse_int", counted)
    text = format_poset_text(lattice12.poset, lattice12.chains)
    poset, chains = parse_poset_text(text)
    elements = [str(e) for name in sorted(chains) for e in chains[name].elements]
    assert tokens == ["144"] + elements
    assert poset.cover_edges() == lattice12.poset.cover_edges()

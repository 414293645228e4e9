"""Line-oriented text format for posets and their valued chains.

    # comment
    events N
    rel A B
    chain NAME e1 e2 ... : v1 v2 ...

``rel A B`` states that event A influences event B. The ``events`` header
must come first; unknown keywords are rejected. Values accept integers,
fractions like ``3/2`` and decimals like ``0.5`` or ``1e-3``, with at most
1000 digits and an exponent of at most 1000 in magnitude.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .chains import ValuedChain, _check_type, _checked_chains, _parse_rational, make_valued_chain
from .errors import FormatError, InvalidArgumentError
from .poset import Poset, _check_event_count, build_poset


def parse_poset_text(text: str) -> tuple[Poset, dict[str, ValuedChain]]:
    """The poset and chains that ``text`` states; a ``text`` that is not a
    str raises InvalidArgumentError."""
    _check_type(text, str, "poset text")
    event_count: int | None = None
    relations: list[tuple[int, int]] = []
    chain_specs: list[tuple[str, list[int], list[Fraction]]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokens(raw)
        if not tokens:
            continue
        keyword = tokens[0]
        if keyword in ("rel", "chain") and event_count is None:
            raise FormatError(f"line {lineno}: {keyword!r} before 'events' header")
        if keyword == "events":
            if event_count is not None:
                raise FormatError(f"line {lineno}: duplicate events header")
            if len(tokens) != 2:
                raise FormatError(f"line {lineno}: expected 'events N'")
            event_count = _parse_int(tokens[1], lineno)
            try:
                _check_event_count(event_count)
            except ValueError as exc:
                raise FormatError(f"line {lineno}: {exc}") from None
        elif keyword == "rel":
            if len(tokens) != 3:
                raise FormatError(f"line {lineno}: expected 'rel A B'")
            relations.append((_parse_int(tokens[1], lineno), _parse_int(tokens[2], lineno)))
        elif keyword == "chain":
            if len(tokens) < 4 or ":" not in tokens:
                raise FormatError(
                    f"line {lineno}: expected 'chain NAME e1 ... : v1 ...'"
                )
            split = tokens.index(":")
            name = tokens[1]
            elements = [_parse_int(t, lineno) for t in tokens[2:split]]
            values = [_parse_fraction(t, lineno) for t in tokens[split + 1 :]]
            if not elements or len(elements) != len(values):
                raise FormatError(
                    f"line {lineno}: chain {name!r} needs one value per element"
                )
            chain_specs.append((name, elements, values))
        else:
            raise FormatError(f"line {lineno}: unknown keyword {keyword!r}")

    if event_count is None:
        raise FormatError("missing 'events N' header")
    poset = build_poset(event_count, relations)
    chains: dict[str, ValuedChain] = {}
    for name, elements, values in chain_specs:
        if name in chains:
            raise FormatError(f"duplicate chain name {name!r}")
        chains[name] = make_valued_chain(poset, elements, values, name)
    return poset, chains


def format_poset_text(poset: Poset, chains: Mapping[str, ValuedChain] | None = None) -> str:
    _check_type(poset, Poset, "the poset to format")
    chains = _checked_chains(chains, poset)
    lines = [f"events {poset.event_count}"]
    lines.extend(f"rel {a} {b}" for a, b in poset.cover_edges())
    for name in sorted(chains):
        if name == ":" or _tokens(name) != [name]:
            raise InvalidArgumentError(f"chain name {name!r} is not one token of the text format")
        vc = chains[name]
        elements = " ".join(str(e) for e in vc.elements)
        values = " ".join(str(v) for v in vc.values)
        lines.append(f"chain {name} {elements} : {values}")
    return "\n".join(lines) + "\n"


def _tokens(line: str) -> list[str]:
    """The tokens of one line: its text before any ``#``, split on whitespace."""
    return line.split("#", 1)[0].split()


def _parse_int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise FormatError(f"line {lineno}: {token!r} is not an integer") from None


def _parse_fraction(token: str, lineno: int) -> Fraction:
    try:
        return _parse_rational(token)
    except FormatError as exc:
        raise FormatError(f"line {lineno}: {exc}") from None

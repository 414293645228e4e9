"""Inputs that used to hang, misparse or end in a traceback.

Rational tokens in text files and in argv go through one bounded parser;
an empty ``--input`` is a path; a geometric export needs chains.
"""
import contextlib
import io
import re
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from eventposet import FormatError, parse_poset_text
from eventposet.cli import main
from eventposet.textio import _RATIONAL_TOKEN, _parse_rational

# Every form that the tests, the benchmark inputs and the README use.
ACCEPTED = ["0", "3", "-3", "+3", "1/2", "-3/2", "3/2", "0.5", "-0.5", ".5",
            "2.", "1e-3", "-1E3", "1_000", " 7 ", "1e1000",
            "1e-1000", "9" * 1000]


@pytest.mark.parametrize("token", ACCEPTED)
def test_parser_reads_what_fraction_reads(token):
    assert _parse_rational(token) == Fraction(token)
    if token == token.strip():  # a text file splits tokens at spaces
        _, chains = parse_poset_text(f"events 1\nchain P 0 : {token}\n")
        assert chains["P"].values == (Fraction(token),)


@pytest.mark.parametrize("token, message", [
    ("abc", "is not a rational"),
    ("1/0", "is not a rational"),
    ("1e1001", "exponent beyond 1000"),
    ("1e-1001", "exponent beyond 1000"),
    ("1e1000000", "exponent beyond 1000"),
    ("1e40000000", "exponent beyond 1000"),
    ("9" * 1001, "more than 1000 digits"),
    ("1." + "0" * 1000, "more than 1000 digits"),
    ("1e" + "0" * 1000 + "1", "more than 1000 digits"),
])
def test_text_format_refuses_bad_and_oversized_tokens(token, message):
    start = time.perf_counter()
    with pytest.raises(FormatError) as info:
        parse_poset_text(f"events 1\n\nchain P 0 : {token}\n")
    assert time.perf_counter() - start < 0.1
    assert str(info.value).startswith("line 3: ")
    assert message in str(info.value)


@settings(max_examples=400)
@given(st.text(alphabet="0123456789-+./eE_ ", max_size=7))
def test_token_grammar_is_fractions(token):
    # Short tokens keep Fraction fast. Spaces around "/" are refused here,
    # though newer Pythons' Fraction reads them.
    assume(not re.search(r"\s/|/\s", token))
    try:
        Fraction(token)
        reads = True
    except ValueError:
        reads = False
    except ZeroDivisionError:
        reads = True
    assert (_RATIONAL_TOKEN.match(token) is not None) is reads


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv, first_line", [
    (["scalar", "--pair", "-0.5", "1"], "scalar = -1/2 (space-like)"),
    (["scalar", "--pair", "-.5", "-1e0"], "scalar = 1/2 (time-like)"),
    (["transform", "--m", "4", "--n", "1", "--pair", "-0.5", "2"], "pair' = (-1, 1)"),
    (["transform", "--m", "4", "--n", "1", "--pair", "-3/2", "2"], "pair' = (-3, 1)"),
])
def test_negative_decimals_parse_in_argv(argv, first_line):
    code, out, err = _run(argv)
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == first_line


@pytest.mark.parametrize("argv, message", [
    (["transform", "--m", "1e40000000", "--n", "1", "--pair", "1", "1"], "exponent beyond 1000"),
    (["scalar", "--pair", "-1e40000000", "1"], "exponent beyond 1000"),
    (["scalar", "--pair", "1", "9" * 1001], "more than 1000 digits"),
])
def test_oversized_argv_tokens_are_usage_errors(argv, message):
    start = time.perf_counter()
    code, _, err = _run(argv)
    assert time.perf_counter() - start < 0.1
    assert code == 2
    assert message in err


@pytest.mark.parametrize("argv", [
    ["verify", "--input", ""],
    ["build", "--input", ""],
    ["classify", "--input", "", "--chains", "P", "Q"],
])
def test_empty_input_is_an_unreadable_path(argv):
    code, out, err = _run(argv)
    assert code == 2
    assert out == ""
    assert "cannot read --input" in err


def test_geometric_export_without_chains_is_a_usage_error():
    code, out, err = _run(["export", "--gen", "random:0,5,0.2", "--mode", "geometric"])
    assert (code, out) == (2, "")
    assert "geometric view needs at least one chain" in err

"""Inputs that used to hang, misparse or end in a traceback.

Rational tokens in text files, in argv and in library strings go through
one bounded parser; an empty ``--input`` is a path; a geometric export
needs chains; a float root is computed from integers, and a float result
outside the float range is a domain error.
"""
import contextlib
import io
import math
import re
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from eventposet import (
    FloatRangeError,
    FormatError,
    IntervalPair,
    InvalidArgumentError,
    PairTransform,
    apply_pair_transform,
    chain_poset,
    make_valued_chain,
    pair,
    parse_poset_text,
    scalar_length,
)
from eventposet.chains import _RATIONAL_TOKEN, _parse_rational, as_fraction
from eventposet.cli import main

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


@pytest.mark.parametrize("token, message", [
    ("1e2000000", "exponent beyond 1000"),
    ("1e40000000", "exponent beyond 1000"),
    ("1/0", "is not a rational"),
    ("x", "is not a rational"),
    ("9" * 1001, "more than 1000 digits"),
])
def test_library_strings_go_through_the_token_parser(token, message):
    start = time.perf_counter()
    with pytest.raises(FormatError, match=message):
        as_fraction(token)
    assert time.perf_counter() - start < 0.1
    for build in (
        lambda: make_valued_chain(chain_poset(1), (0,), (token,)),
        lambda: PairTransform(token, 1),
        lambda: pair(1, token),
        lambda: IntervalPair(token, 1),
    ):
        with pytest.raises(FormatError, match=re.escape(repr(token))):
            build()


@pytest.mark.parametrize("build", [
    # Each used to end in Fraction's bare TypeError.
    pytest.param(lambda: PairTransform(None, 1), id="pair-transform"),
    pytest.param(lambda: pair(None, 1), id="pair"),
    pytest.param(lambda: IntervalPair(None, 1), id="interval-pair"),
    pytest.param(lambda: make_valued_chain(chain_poset(2), (0, 1), (None, 1)),
                 id="valued-chain"),
])
def test_values_of_no_number_type_are_refused(build):
    with pytest.raises(InvalidArgumentError, match="None is neither a real number nor a string"):
        build()


def test_library_strings_read_as_before():
    assert as_fraction("-3/2") == Fraction(-3, 2)
    assert as_fraction(" 1e-3 ") == Fraction(1, 1000)
    assert make_valued_chain(chain_poset(2), (0, 1), ("0.5", "1_000")).values == (
        Fraction(1, 2), Fraction(1000))


@pytest.mark.parametrize("argv, line", [
    (["scalar", "--pair", "1e-200", "3e-200"], "sigma = 1.7320508075688772e-200"),
    (["scalar", "--pair", "1e200", "2e200"], "sigma = 1.414213562373095e+200"),
])
def test_float_roots_at_the_ends_of_the_float_range(argv, line):
    code, out, err = _run(argv)
    assert (code, err) == (0, "")
    assert line in out.splitlines()


@pytest.mark.parametrize("argv, value", [
    (["transform", "--m", "1e700", "--n", "3", "--pair", "1", "1"], "5.773503e+349"),
    (["transform", "--m", "2", "--n", "1", "--pair", "1e400", "1"], "1.414214e+400"),
    (["transform", "--m", "2", "--n", "1", "--pair", "1", "1e-400"], "7.071068e-401"),
    (["scalar", "--pair", "1e400", "2e400"], "1.414214e+400"),
    (["scalar", "--pair", "1e-400", "-2e-400"], "1.414214e-400"),
])
def test_results_beyond_float_range_are_domain_errors(argv, value):
    code, out, err = _run(argv)
    assert (code, out) == (1, "")
    assert err == f"error: inexact result {value} is outside the float range\n"


def test_library_results_beyond_float_range_raise():
    with pytest.raises(FloatRangeError, match="1.414214e\\+400"):
        scalar_length(pair(Fraction(10) ** 400, 2 * Fraction(10) ** 400))
    with pytest.raises(FloatRangeError, match="5.773503e\\+349"):
        apply_pair_transform(pair(1, 1), PairTransform(Fraction(10) ** 700, 3))
    # A float component in range whose scaled image is not (named by its
    # exact value), and one that is not a finite float at all.
    for component, value in ((1.5e308, "2.121320e\\+308"), (math.inf, "Infinity")):
        with pytest.raises(FloatRangeError, match=value):
            apply_pair_transform(pair(component, 1), PairTransform(2, 1))
    # A subnormal root cannot carry 1e-12 relative accuracy.
    with pytest.raises(FloatRangeError, match="1.414214e-320"):
        scalar_length(pair(Fraction(1, 10 ** 320), Fraction(2, 10 ** 320)))


@settings(max_examples=300)
@given(
    st.integers(1, 10 ** 30),
    st.integers(1, 10 ** 30),
    st.integers(-560, 560),
)
def test_float_roots_meet_the_contract_at_every_magnitude(num, den, exponent):
    # Radicands within 1e590 either way: their roots are normal floats.
    radicand = Fraction(num, den) * Fraction(10) ** exponent
    root = scalar_length(pair(radicand, 1)).value
    if isinstance(root, Fraction):
        assert root * root == radicand
        return
    # Compared exactly: the float's square is within 1e-12 of the radicand.
    assert abs(Fraction(root) ** 2 / radicand - 1) < Fraction(1, 10 ** 12)

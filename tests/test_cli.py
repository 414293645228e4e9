import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import eventposet
from eventposet.cli import main


def test_build_summary(capsys):
    assert main(["build", "--gen", "lattice:8,8"]) == 0
    out = capsys.readouterr().out
    assert "events 64" in out
    assert "chain P length 8" in out


def test_build_writes_file(tmp_path, capsys):
    out_file = tmp_path / "poset.txt"
    assert main(["build", "--gen", "simplex:3", "--out", str(out_file)]) == 0
    content = out_file.read_text()
    assert content.startswith("events 6")
    assert "chain C1" in content
    capsys.readouterr()


def test_roundtrip_through_input_file(tmp_path, capsys):
    out_file = tmp_path / "poset.txt"
    main(["build", "--gen", "lattice:6,6", "--out", str(out_file)])
    capsys.readouterr()
    assert main(["build", "--input", str(out_file)]) == 0
    assert "events 36" in capsys.readouterr().out


def test_project_table(capsys):
    assert main(["project", "--gen", "simplex:2", "--chain", "C1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "0 (0,0)"   # bottom of C1
    assert lines[1] == "1 (1,.)"   # bottom of C2: forward projection only
    assert lines[2] == "2 (1,1)"   # top of C1
    assert lines[3] == "3 (.,0)"   # top of C2: backward projection only


def test_classify_table(capsys):
    assert main(["classify", "--gen", "lattice:12,12", "--chains", "P", "Q"]) == 0
    out = capsys.readouterr().out
    assert "II P|x|Q" in out
    assert " - -" in out  # events with missing projections


def test_relate(capsys):
    assert main(["relate", "--gen", "lattice:12,12", "--chains", "S", "P"]) == 0
    out = capsys.readouterr().out
    assert "m = 4" in out and "n = 1" in out


def test_relate_failure_exit_code(capsys):
    code = main(["relate", "--gen", "lattice:12,12", "--chains", "P", "Q"])
    assert code == 1
    assert "not linearly related" in capsys.readouterr().out


def test_quantify(capsys):
    lattice_event = lambda u, v: u * 12 + v
    args = [
        "quantify",
        "--gen", "lattice:12,12",
        "--interval", str(lattice_event(3, 1)), str(lattice_event(6, 2)),
        "--chains", "P", "Q",
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "pair = (3, 1)" in out
    assert "length = 2" in out
    assert "distance = 1" in out
    assert "scalar = 3 (time-like)" in out


def test_transform(capsys):
    assert main(["transform", "--m", "4", "--n", "1", "--pair", "2", "2"]) == 0
    out = capsys.readouterr().out
    assert "pair' = (4, 1)" in out
    assert "beta = 3/5" in out
    assert "gamma = 5/4" in out


@pytest.mark.parametrize("argv, expected", [
    (["transform", "--m", "2", "--n", "1", "--pair", "1", "1"],
     "pair' = (1.4142135623730951, 0.7071067811865475)\n"
     "beta = 1/3\n"
     "gamma = 1.0606601717798212\n"
     "matrix = [[1.0606601717798212, 0.35355339059327373], "
     "[0.35355339059327373, 1.0606601717798212]]\n"),
    (["transform", "--m", "3", "--n", "7", "--pair", "3", "1"],
     "pair' = (1.9639610121239315, 1.5275252316519465)\n"
     "beta = -2/5\n"
     "gamma = 1.0910894511799618\n"
     "matrix = [[1.0910894511799618, -0.4364357804719847], "
     "[-0.4364357804719847, 1.0910894511799618]]\n"),
    (["scalar", "--pair", "1", "2"],
     "scalar = 2 (time-like)\n"
     "sigma = 1.4142135623730951\n"
     "dt^2 = 9/4\n"
     "dx^2 = 1/4\n"),
], ids=["transform-2-1", "transform-3-7", "scalar-irrational-sigma"])
def test_irrational_results_print_exactly(capsys, argv, expected):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert (out, err) == (expected, "")


def test_scalar(capsys):
    assert main(["scalar", "--pair", "4", "1"]) == 0
    out = capsys.readouterr().out
    assert "scalar = 4 (time-like)" in out
    assert "sigma = 2" in out


def test_scalar_accepts_negative_fractions(capsys):
    assert main(["scalar", "--pair", "-3/2", "3/2"]) == 0
    out = capsys.readouterr().out
    assert "scalar = -9/4 (space-like)" in out
    assert "sigma = 3/2i" in out


def test_dot_with_generated_lattice(tmp_path, capsys):
    from eventposet import format_poset_text
    from eventposet.verify import projection_lattice

    lattice = projection_lattice()
    source = tmp_path / "pi.txt"
    source.write_text(format_poset_text(lattice.poset, lattice.chains))
    x = lattice.event(6, 10)
    y = lattice.event(2, 10)
    code = main([
        "dot", "--input", str(source), "--x", str(x), "--y", str(y),
        "--chains", "P", "Q",
    ])
    assert code == 0
    assert "projection = 2" in capsys.readouterr().out


def test_export_hasse(capsys):
    assert main(["export", "--gen", "simplex:2", "--mode", "hasse"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph poset {")


def test_export_geometric_to_file(tmp_path, capsys):
    target = tmp_path / "view.gv"
    assert main([
        "export", "--gen", "lattice:12,12", "--mode", "geometric",
        "--out", str(target),
    ]) == 0
    assert target.read_text().startswith("graph chains {")


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["transform", "--m", "4"])
    assert exc.value.code == 2


def test_unknown_chain_is_usage_error(capsys):
    # Also an unknown generator and a missing source: usage errors found
    # after parsing exit 2, like those argparse finds itself.
    for source in (["--gen", "lattice:8,8"], ["--gen", "cube:3"], []):
        with pytest.raises(SystemExit) as exc:
            main(["project", *source, "--chain", "Z"])
        assert exc.value.code == 2
        assert "eventposet project: error:" in capsys.readouterr().err


# argv that used to end in a Python traceback or in the wrong exit code.
# "FILE" stands for a file holding the given text, or for a missing file
# when the text is None.
BAD_INPUTS = [
    ("gen-not-int", ["project", "--gen", "lattice:a,3", "--chain", "P"], None, 2),
    ("gen-lattice-negative", ["project", "--gen", "lattice:-1,3", "--chain", "P"], None, 2),
    ("gen-lattice-zero", ["project", "--gen", "lattice:0,3", "--chain", "P"], None, 2),
    ("gen-over-cap", ["build", "--gen", "random:1,5000,0.1"], None, 2),
    ("gen-negative", ["build", "--gen", "simplex:-1"], None, 2),
    ("m-not-rational", ["transform", "--m", "abc", "--n", "1", "--pair", "1", "1"], None, 2),
    ("m-zero-denominator", ["transform", "--m", "1/0", "--n", "1", "--pair", "1", "1"], None, 2),
    ("pair-not-rational", ["scalar", "--pair", "1", "x"], None, 2),
    ("input-missing", ["build", "--input", "FILE"], None, 2),
    ("header-negative", ["build", "--input", "FILE"], "events -1\n", 1),
    ("header-over-cap", ["build", "--input", "FILE"], "events 5000\n", 1),
]


@pytest.mark.parametrize(
    "argv, text, code", [row[1:] for row in BAD_INPUTS], ids=[row[0] for row in BAD_INPUTS]
)
def test_bad_input_exit_codes(tmp_path, capsys, argv, text, code):
    path = tmp_path / "poset.txt"
    if text is not None:
        path.write_text(text)
    argv = [str(path) if arg == "FILE" else arg for arg in argv]
    if code == 2:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"usage: eventposet {argv[0]}" in capsys.readouterr().err
    else:
        assert main(argv) == 1
        assert "error: line 1:" in capsys.readouterr().err


def test_closed_pipe_exits_1_without_traceback():
    # Like ``eventposet project ... | head -1``, but with the reading end
    # closed before the child starts, so every write of its 50 kB table
    # meets a closed pipe.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": str(Path(eventposet.__file__).parent.parent)}
    try:
        done = subprocess.run(
            [sys.executable, "-m", "eventposet", "project", "--gen", "lattice:64,64", "--chain", "P"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 1
    # No traceback, and no "Exception ignored" note from the flush at exit.
    assert done.stderr == b""


def test_domain_error_exits_1(capsys):
    # Event 54 = (4, 6) sits beyond P, away from Q: not between the pair.
    code = main([
        "quantify", "--gen", "lattice:12,12",
        "--interval", "54", "101", "--chains", "P", "Q",
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err


VERIFY_CHECK_NAMES = [
    "order-axioms[lattice-8x8]",
    "reduction-roundtrip[lattice-8x8]",
    "order-axioms[lattice-12x12]",
    "reduction-roundtrip[lattice-12x12]",
    "order-axioms[random-0]",
    "reduction-roundtrip[random-0]",
    "order-axioms[random-1]",
    "reduction-roundtrip[random-1]",
    "order-axioms[random-2]",
    "reduction-roundtrip[random-2]",
    "projection-oracle[lattice-8x8]",
    "projection-monotonicity[lattice-8x8]",
    "projection-oracle[lattice-12x12]",
    "projection-monotonicity[lattice-12x12]",
    "projection-oracle[random-0]",
    "projection-oracle[random-1]",
    "projection-oracle[random-2]",
    "interval-length-additivity",
    "collinearity-uniqueness",
    "collinearity-self-duality",
    "coordination-rest-chains",
    "linear-relation-detection",
    "chain-distance-constancy",
    "two-chain-vs-one-chain",
    "scalar-invariance",
    "sign-preservation",
    "simplex-equal-distances",
    "transform-layer",
    "minkowski-identity",
    "subspace-projection",
    "text-roundtrip",
]


def test_verify_exits_zero(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out
    assert "[FAIL]" not in out
    # The check names are an interface: scripts select checks by them.
    passed = [
        line.removeprefix("[PASS] ")
        for line in out.splitlines()
        if line.startswith("[PASS] ")
    ]
    assert passed == VERIFY_CHECK_NAMES
    assert out.splitlines()[-1] == "31/31 checks passed"


_GEN_SPEC = st.one_of(
    st.builds("lattice:{},{}".format, st.integers(-1, 6), st.integers(-1, 6)),
    st.builds("simplex:{}".format, st.integers(-1, 5)),
    st.builds(
        "random:{},{},{}".format,
        st.integers(-1, 3),
        st.integers(-1, 30),
        st.sampled_from(["0.2", "1", "2", "-0.5", "nan", "x"]),
    ),
    st.sampled_from(["lattice:a,3", "lattice:3", "lattice", "spiral:3", "random:1,2"]),
)
_SOURCE = st.one_of(
    st.tuples(st.just("--gen"), _GEN_SPEC),
    st.tuples(st.just("--input"), st.sampled_from(["GOOD", "BAD", "MISSING"])),
)
_NAME = st.sampled_from(["P", "Q", "R", "S", "T", "C1", "C2", "C3", "x"])
_ID = st.integers(-2, 40).map(str)
_RATIONAL = st.one_of(
    st.integers(-9, 9).map(str), st.sampled_from(["1/2", "-3/2", "1/0", "0.5", "abc"])
)
_STRAY = st.one_of(_NAME, _ID, _RATIONAL, st.sampled_from(["--gen", "--chains", "--pair", "-x"]))
# The options of each subcommand and the values they take; the CLI
# grammar, which the fuzzed argv follows before it is damaged.
_OPTIONS = {
    "build": [],
    "project": [("--chain", _NAME)],
    "classify": [("--chains", _NAME, _NAME)],
    "relate": [("--chains", _NAME, _NAME)],
    "quantify": [("--interval", _ID, _ID), ("--chains", _NAME, _NAME)],
    "transform": [("--m", _RATIONAL), ("--n", _RATIONAL), ("--pair", _RATIONAL, _RATIONAL)],
    "scalar": [("--pair", _RATIONAL, _RATIONAL)],
    "dot": [("--x", _ID), ("--y", _ID), ("--chains", _NAME, _NAME)],
    "verify": [],
    "export": [("--mode", st.sampled_from(["hasse", "geometric", "x"]))],
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    argv = [command]
    if command not in ("transform", "scalar"):
        argv += draw(_SOURCE)
    for option, *values in _OPTIONS[command]:
        argv += [option, *(draw(value) for value in values)]
    if command in ("build", "export") and draw(st.booleans()):
        argv += ["--out", "OUT"]
    # Damage one argv in four: drop a word, then maybe add a stray one.
    if len(argv) > 1 and draw(st.integers(0, 3)) == 0:
        del argv[draw(st.integers(1, len(argv) - 1))]
    if draw(st.integers(0, 3)) == 0:
        argv.insert(draw(st.integers(1, len(argv))), draw(_STRAY))
    return argv


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("fuzz")
    good = folder / "good.txt"
    good.write_text("events 4\nrel 0 1\nrel 1 2\nrel 0 3\nchain P 0 1 2 : 0 1 2\n")
    bad = folder / "bad.txt"
    bad.write_text("events 3\nrel 0 1\nrel 1 0\n")
    return {"GOOD": str(good), "BAD": str(bad), "MISSING": str(folder / "none.txt"),
            "OUT": str(folder / "out.txt")}


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(words=_argv())
def test_arbitrary_argv_keeps_the_exit_code_contract(fuzz_files, words):
    # Any argv of a known subcommand returns 0 or 1, or exits 2 as a usage
    # error. Files are named by placeholders, so --out only writes scratch.
    argv = [fuzz_files.get(word, word) for word in words]
    assume(argv != ["verify"])  # the full suite; test_verify_exits_zero runs it
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, (argv, stderr.getvalue())
            return
    assert code in (0, 1), argv

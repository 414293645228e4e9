"""The comparison of ``tools/bench_record.py`` on hand-made records."""
import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"


@pytest.fixture(scope="module")
def bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(label, values):
    """A record of one cli-oneshot run per seed with the given op_p90_ms and ops_per_s."""
    return {
        "label": label, "commit": label[:7], "tree": "0" * 40, "environment": {},
        "runs": [
            {"workload": "cli-oneshot", "seed": seed, "trace": 0,
             "correct": True, "attempted": 60, "failed": 0,
             "metrics": {"op_p90_ms": p90, "ops_per_s": rate}}
            for seed, (p90, rate) in values.items()
        ],
    }


def test_compare_pairs_runs_by_seed(bench_record):
    parent = _record("abc1234", {1: (100, 10), 2: (110, 10), 3: (120, 10), 4: (130, 10)})
    # Seed 9 has no partner and is left out; the change wins three p90 pairs of four.
    change = _record("abc1234+0123456789", {4: (90, 13), 3: (125, 12), 2: (80, 7), 1: (70, 11), 9: (1, 1)})
    rows = {row["metric"]: row for row in
            bench_record.compare_records(parent, change, bench_record.declared_metrics())}
    p90 = rows["op_p90_ms"]
    assert (p90["pairs"], p90["wins_b"]) == (4, 3)
    assert (p90["median_a"], p90["median_b"]) == (115, 85)
    assert p90["ratio"] == pytest.approx(85 / 115)
    assert p90["spread_a"] == pytest.approx(15)  # quartiles 107.5 and 122.5
    assert not bench_record.worse_beyond_bound(p90)
    rate = rows["ops_per_s"]  # higher is better
    assert rate["wins_b"] == 3
    assert rate["ratio"] == pytest.approx(1.15)


def test_compare_flags_a_regression_beyond_the_bound(bench_record, tmp_path, capsys):
    parent = _record("abc1234", {1: (100, 10), 2: (100, 10)})
    change = _record("abc1234+0123456789", {1: (130, 7), 2: (130, 7)})
    rows = bench_record.compare_records(parent, change, bench_record.declared_metrics())
    assert [bench_record.worse_beyond_bound(row) for row in rows] == [True, True]
    paths = []
    for name, rec in (("A", parent), ("B", change)):
        paths.append(tmp_path / f"BENCH_{name}.json")
        paths[-1].write_text(json.dumps(rec))
    assert bench_record.main(["--compare", *map(str, paths)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "A = abc1234, B = abc1234+0123456789; ratio = B/A of the medians"
    assert all(line.endswith(" !") for line in lines[2:])


def _git(repo, *args):
    subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@example.org",
                    *args], check=True, capture_output=True)


@pytest.fixture
def checkout(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q")
    (repo / ".gitignore").write_text("out/\n")
    (repo / "a.txt").write_text("a\n")
    _git(repo, "add", ".")
    _git(repo, "commit", "-q", "-m", "one")
    return repo


def test_label_names_the_measured_tree(bench_record, checkout):
    commit, tree, label = bench_record.describe(checkout)
    assert label == commit and len(tree) == 40
    (checkout / "out").mkdir()
    (checkout / "out" / "trace.json").write_text("{}")  # ignored: still the commit
    assert bench_record.describe(checkout) == (commit, tree, commit)

    (checkout / "b.txt").write_text("b\n")  # untracked files count
    _, tree_b, label_b = bench_record.describe(checkout)
    assert tree_b != tree and label_b == f"{commit}+{tree_b[:10]}"
    (checkout / "b.txt").unlink()
    (checkout / "a.txt").write_text("another a\n")
    _, tree_c, label_c = bench_record.describe(checkout)
    assert tree_c not in (tree, tree_b) and label_c == f"{commit}+{tree_c[:10]}"

    (checkout / "a.txt").write_text("a\n")
    assert bench_record.describe(checkout) == (commit, tree, commit)
    status = subprocess.run(["git", "-C", str(checkout), "status", "--porcelain"],
                            capture_output=True, text=True, check=True).stdout
    assert status == ""  # the real index is left alone


def test_record_refuses_two_checkouts_of_one_tree(bench_record, checkout, tmp_path, monkeypatch):
    twin = tmp_path / "twin"
    _git(tmp_path, "clone", "-q", str(checkout), str(twin))
    monkeypatch.setattr(bench_record, "run_once", lambda *a: pytest.fail("ran a workload"))
    argv = ["--workload", "cli-oneshot", "--seed", "1", "--out-dir", str(tmp_path)]
    with pytest.raises(SystemExit, match="hold the same tree"):
        bench_record.main(["--checkout", str(checkout), "--checkout", str(twin), *argv])

    commit, tree, label = bench_record.describe(checkout)
    (tmp_path / f"BENCH_{label}.json").write_text(json.dumps(
        {"label": label, "commit": commit, "tree": "f" * 40, "environment": {}, "runs": []}))
    with pytest.raises(SystemExit, match="not this checkout's tree"):
        bench_record.main(["--checkout", str(checkout), *argv])


def test_record_creates_a_missing_out_dir(bench_record, checkout, tmp_path, monkeypatch):
    run = {"workload": "cli-oneshot", "seed": 1, "trace": 0, "correct": True,
           "attempted": 1, "failed": 0, "metrics": {"op_p90_ms": 1.0}}
    monkeypatch.setattr(bench_record, "run_once", lambda *a: dict(run))
    out_dir = tmp_path / "missing" / "nested"
    argv = ["--checkout", str(checkout), "--workload", "cli-oneshot", "--seed", "1",
            "--out-dir", str(out_dir)]
    assert bench_record.main(argv) == 0
    (path,) = out_dir.glob("BENCH_*.json")
    assert json.loads(path.read_text())["runs"] == [run]


def test_compare_refuses_records_without_a_shared_run(bench_record, tmp_path, capsys):
    # Seeds 1 and 2 against 3 and 4: no run of B has a partner in A.
    paths = []
    for name, rec in (("A", _record("abc1234", {1: (100, 10), 2: (100, 10)})),
                      ("B", _record("def5678", {3: (100, 10), 4: (100, 10)}))):
        paths.append(tmp_path / f"BENCH_{name}.json")
        paths[-1].write_text(json.dumps(rec))
    assert bench_record.main(["--compare", *map(str, paths)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: abc1234 and def5678 share no run of one workload, trace mode and seed\n"
    )


def test_record_names_a_checkout_that_git_cannot_describe(bench_record, tmp_path, monkeypatch):
    plain = tmp_path / "plain"
    plain.mkdir()
    monkeypatch.setattr(bench_record, "run_once", lambda *a: pytest.fail("ran a workload"))
    out_dir = tmp_path / "out"
    argv = ["--checkout", str(plain), "--workload", "cli-oneshot", "--seed", "1",
            "--out-dir", str(out_dir)]
    with pytest.raises(SystemExit) as exc:
        bench_record.main(argv)
    message = exc.value.code
    assert message.startswith(f"error: {plain.resolve()} is not a git checkout with a commit; "
                              "git said: fatal: ")
    assert "\n" not in message
    assert not out_dir.exists()


def test_record_refuses_checkouts_that_differ_in_bytecode(
        bench_record, checkout, tmp_path, monkeypatch):
    twin = tmp_path / "twin"
    _git(tmp_path, "clone", "-q", str(checkout), str(twin))
    (twin / "b.txt").write_text("b\n")  # another tree, so the twin records apart
    cache = twin / "src" / "pkg" / "__pycache__"
    cache.mkdir(parents=True)
    (cache / "mod.cpython-311.pyc").write_bytes(b"")
    run = {"workload": "cli-oneshot", "seed": 1, "trace": 0, "correct": True,
           "attempted": 1, "failed": 0, "metrics": {"op_p90_ms": 1.0}}
    ran = []
    monkeypatch.setattr(bench_record, "run_once", lambda *a: ran.append(a) or dict(run))
    out_dir = tmp_path / "out"
    argv = ["--workload", "cli-oneshot", "--seed", "1", "--out-dir", str(out_dir)]
    for first, second in ((checkout, twin), (twin, checkout)):
        with pytest.raises(SystemExit) as exc:
            bench_record.main(["--checkout", str(first), "--checkout", str(second), *argv])
        assert exc.value.code == (
            f"error: {twin.resolve()} holds __pycache__ under src/ and {checkout.resolve()} "
            "does not; remove it so that every checkout imports alike"
        )
    assert not ran and not out_dir.exists()

    # Bytecode in both checkouts compares alike.
    shutil.copytree(cache, checkout / "src" / "pkg" / "__pycache__")
    assert bench_record.main(["--checkout", str(checkout), "--checkout", str(twin), *argv]) == 0
    assert len(ran) == 2


def _completed(returncode, stdout, stderr):
    return lambda argv: subprocess.CompletedProcess(argv, returncode, stdout, stderr)


@pytest.mark.parametrize("second, status, last", [
    (_completed(1, "", "Traceback (most recent call last):\nRuntimeError: boom\n"),
     "exit status 1", "RuntimeError: boom"),
    (_completed(0, "progress\nnot json\n", ""),
     "exit status 0 without a result line", "(none)"),
], ids=["failed", "malformed"])
def test_record_names_a_failed_run_and_keeps_the_earlier_ones(
        bench_record, checkout, tmp_path, monkeypatch, second, status, last):
    result = {"correct": True, "attempted": 1, "failed": 0,
              "metrics": {"op_p90_ms": {"value": 1.0}}}
    runs = iter([_completed(0, "progress\n" + json.dumps(result) + "\n", ""), second])
    real_run = subprocess.run

    def fake_run(argv, **kwargs):
        # git keeps working; each perfbench/run.py call gets the next outcome.
        if "perfbench/run.py" not in argv:
            return real_run(argv, **kwargs)
        return next(runs)(argv)

    monkeypatch.setattr(subprocess, "run", fake_run)
    argv = ["--checkout", str(checkout), "--workload", "cli-oneshot", "--seed", "1", "2",
            "--out-dir", str(tmp_path)]
    with pytest.raises(SystemExit) as exc:
        bench_record.main(argv)
    assert exc.value.code == (
        f"error: perfbench/run.py in {checkout.resolve()}, workload cli-oneshot, seed 2: "
        f"{status}; last stderr line: {last}"
    )
    (path,) = tmp_path.glob("BENCH_*.json")
    assert [run["seed"] for run in json.loads(path.read_text())["runs"]] == [1]

"""Tests of the benchmark itself: ``python3 -m pytest perfbench``.

They run the benchmark in child processes at its smallest size, so the
whole file takes about a minute.
"""
from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
import oracles
import speed
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def run_benchmark(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def last_json(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    """Every count and count ratio of the traced run is a function of the seed.

    ``tracing.overhead_ratio`` is a ratio of wall times and is left out.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]}
    runs = [
        last_json(run_benchmark("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1"))
        for _ in range(2)
    ]
    for result in runs:
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == declared
    counted = [
        name for name in declared
        if name.endswith(("_calls", "_proofs", "_ratio", "_per_pair")) and name != "tracing.overhead_ratio"
    ]
    first, second = ({name: r["metrics"][name]["value"] for name in counted} for r in runs)
    assert first == second
    assert any(first.values())


def test_end_to_end_reports_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = last_json(run_benchmark("--workload", "lattice-queries", "--seed", "3", "--seconds", "1"))
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_benchmark("--workload", "dag-build", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip().endswith("}")


def test_scaling_cancels_a_change_of_machine_speed():
    walls = [0.010, 0.020, 0.030]
    references = [(0.1 * k, 0.002) for k in range(4)]
    scaled = speed.scale(walls, references)
    assert scaled == pytest.approx([wall * speed.REFERENCE_S / 0.002 for wall in walls])
    slower = speed.scale([2 * wall for wall in walls], [(t, 2 * r) for t, r in references])
    assert slower == pytest.approx(scaled)


def test_scaling_follows_the_local_reference():
    # The machine halves its speed after 10 s; each operation is scaled by
    # the references taken within a second of it.
    walls = [0.01] * 20
    references = [(float(k), 0.001 if k < 10 else 0.002) for k in range(21)]
    scaled = speed.scale([w if k < 10 else 2 * w for k, w in enumerate(walls)], references)
    assert scaled[:8] == pytest.approx([0.01] * 8)
    assert scaled[12:] == pytest.approx([0.01] * 8)


def test_inputs_depend_only_on_the_seed():
    assert inputs.geometric_dag(random.Random(5), 300, 0.02) == inputs.geometric_dag(random.Random(5), 300, 0.02)
    assert inputs.sprinkling(random.Random(5), 100) == inputs.sprinkling(random.Random(5), 100)
    assert inputs.geometric_dag(random.Random(5), 300, 0.02) != inputs.geometric_dag(random.Random(6), 300, 0.02)


def test_sprinkling_relations_are_all_comparable_pairs():
    coords, relations = inputs.sprinkling(random.Random(2), 60)
    want = {
        (a, b) for a in range(60) for b in range(60)
        if coords[a][0] < coords[b][0] and coords[a][1] < coords[b][1]
    }
    assert set(relations) == want and len(relations) == len(want)


def test_dag_oracle_closure_matches_breadth_first_search():
    relations = inputs.geometric_dag(random.Random(3), 200, 0.03)
    oracle = oracles.DagOracle(200, relations)
    assert all(oracle.bfs(x) == oracle.above[x] for x in range(200))


@pytest.fixture(scope="module")
def lattice_round():
    workload = WORKLOADS["lattice-queries"]
    state = workload.setup(workload.inputs(1))
    state.oracle = workload.oracle(1, None)
    ops = workload.make_round(state, random.Random(1))
    return workload, state, [(op, workload.run(state, op)) for op in ops]


def test_lattice_oracle_accepts_the_program(lattice_round):
    workload, state, results = lattice_round
    assert not workload.setup_errors(state)
    assert all(workload.check(state, op, result) for op, result in results)


def test_lattice_oracle_rejects_wrong_answers(lattice_round):
    workload, state, results = lattice_round
    for op, result in results:
        kind = op[0]
        if kind == "table":
            wrong = result[:-1] + [result[0]]
        elif kind == "row":
            wrong = result[::-1] if result != result[::-1] else [("I", "x|P|Q")] * len(result)
        elif kind == "pair":
            wrong = (result[0].__class__(result[0].first + 1, result[0].second), *result[1:])
        elif kind == "distance":
            wrong = 99 if result == "out-of-range" else "out-of-range"
        elif kind == "relation":
            wrong = (result[1], result[0])
        else:
            wrong = result + 1
        assert not workload.check(state, op, wrong), op


def test_dag_oracle_rejects_wrong_answers():
    workload = WORKLOADS["dag-build"]
    rng = random.Random(4)
    data = [(150, inputs.geometric_dag(rng, 150, 0.04)), (90, inputs.sprinkling(rng, 90)[1])]
    state = workload.setup(data)
    state.oracle = workload.oracle(4, data)

    class FlippedBit:
        """A poset whose closure differs from ``poset`` in one bit."""

        def __init__(self, poset, event, bit):
            self.poset, self.event, self.bit = poset, event, bit

        def above_bits(self, x):
            bits = self.poset.above_bits(x)
            return bits ^ (1 << self.bit) if x == self.event else bits

    for index, (n, _) in enumerate(data):
        op = ("build", index, 11, (0, n - 1))
        poset, parsed, walks, projection = result = workload.run(state, op)
        assert workload.check(state, op, result)
        walk = walks[0]
        assert len(walk) >= 3
        wrong_projection = list(projection)
        wrong_projection[walk[0]] = walk[1]
        wrongs = {
            "closure bit": (FlippedBit(poset, n // 2, n - 1), parsed, walks, projection),
            "closure bit after the round trip": (poset, FlippedBit(parsed, 1, 0), walks, projection),
            "sampled event's closure": (FlippedBit(poset, n - 1, 0), parsed, walks, projection),
            "non-cover step": (poset, parsed, [walk[:1] + walk[2:], *walks[1:]], projection),
            "walk not maximal": (poset, parsed, [walk[:-1], *walks[1:]], projection),
            "walk count": (poset, parsed, walks[:2], projection),
            "projection": (poset, parsed, walks, wrong_projection),
        }
        for what, wrong in wrongs.items():
            assert not workload.check(state, op, wrong), (index, what)


@pytest.fixture(scope="module")
def cli_round():
    workload = WORKLOADS["cli-oneshot"]
    state = workload.setup(None)
    state.oracle = workload.oracle(2, None)
    ops = workload.make_round(state, random.Random(2))
    with workload.running():
        return workload, state, [(op, workload.run(state, op)) for op in ops]


def bump_first_digit(stdout: str, prefix: str) -> str:
    """``stdout`` with the first digit of the first line starting with ``prefix`` changed."""
    lines = stdout.splitlines()
    k = next(k for k, line in enumerate(lines) if line.startswith(prefix))
    lines[k] = re.sub(r"\d", lambda m: str((int(m.group()) + 1) % 10), lines[k], count=1)
    return "\n".join(lines) + "\n"


def test_cli_oracle_rejects_wrong_output(cli_round):
    workload, state, results = cli_round
    targets = {
        "scalar": ("scalar =", "sigma =", "dt^2 =", "dx^2 ="),
        "transform": ("pair' =", "beta =", "gamma =", "matrix ="),
        "project": ("0 ", "255 "),
        "quantify": ("pair =", "symmetric part =", "antisymmetric part =", "length =",
                     "distance =", "scalar ="),
        "classify": ("0 ", "143 "),
        "build": ("events ", "cover edges "),
    }
    assert sorted(op[0] for op, _ in results) == sorted(targets)

    def rejected(op, result):
        # The runner counts a check that raises as a failure, too.
        try:
            return not workload.check(state, op, result)
        except Exception:
            return True

    for op, (code, stdout) in results:
        assert workload.check(state, op, (code, stdout)), op
        assert rejected(op, (1, stdout)), op
        assert rejected(op, (0, "")), op
        assert rejected(op, (0, "\n".join(stdout.splitlines()[:-1]))), op
        for prefix in targets[op[0]]:
            assert rejected(op, (0, bump_first_digit(stdout, prefix))), (op, prefix)
        if op[0] == "quantify":
            for wrong in ("class = antichain-like", "class = pure projection-like"):
                assert rejected(op, (0, re.sub(r"(?m)^class = .*$", wrong, stdout))), op


def test_cli_peak_rss_is_the_largest_cli_child(tmp_path):
    """``peak_rss_mib`` of ``cli-oneshot`` follows the CLI children alone."""
    package = tmp_path / "eventposet"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "__main__.py").write_text(
        "import os\nheld = b'x' * (int(os.environ['GROW_MIB']) << 20)\n"
    )
    workload = WORKLOADS["cli-oneshot"]
    state = workload.setup(None)
    state.env = dict(state.env, PYTHONPATH=str(tmp_path))

    def peak_mib_after(grow_mib: int) -> float:
        state.env["GROW_MIB"] = str(grow_mib)
        assert workload.run(state, ("scalar",))[0] == 0
        return state.peak_rss_kib / 1024

    # This process holds 64 MiB and a child that is not a CLI call holds
    # 96 MiB, more than any CLI child below; neither counts.
    held = b"x" * (64 << 20)
    subprocess.run([sys.executable, "-c", "held = b'x' * (96 << 20)"], check=True)
    with workload.running():
        small = peak_mib_after(0)
        grown = peak_mib_after(32)
    del held
    assert small < 24
    assert 32 < grown < 56

"""Record benchmark runs as ``BENCH_<label>.json`` and compare two records.

    python3 tools/bench_record.py --checkout PARENT --checkout CHANGE \\
        --workload cli-oneshot --seed 4001 4002 ...
    python3 tools/bench_record.py --compare BENCH_A.json BENCH_B.json

Recording runs ``perfbench/run.py`` inside each checkout, once per workload,
seed and checkout, for the ``run_seconds`` that ``BENCHMARK.json`` sets,
and appends each run to ``BENCH_<label>.json`` in ``--out-dir``, which is
created if missing. The label names the tree that was measured: the
checkout's short commit when its files match that commit, else
``<commit>+<tree>``, where ``<tree>`` starts
the git tree id of its files, untracked ones included and ignored ones
left out. With several checkouts, the runs of one workload and seed follow
each other, and the checkout that runs first rotates from seed to seed,
so two checkouts make interleaved pairs with alternating order. A
checkout that git cannot describe, checkouts of which some hold compiled
bytecode (``__pycache__``) under ``src/`` and some do not, or a run that
fails, ends the tool with an ``error:`` line (exit 1); the first two before
any run, and the runs before a failed run stay recorded.

``--compare A B`` pairs the runs of the two records by workload, trace
mode and seed, and prints for each metric both medians, the ratio of B's
median to A's, the distance between A's quartiles, and how many pairs B
won (ties count for neither side). A ``!`` marks a median worse than A's
by more than the metric's bound. Directions and bounds come from
``BENCHMARK.json``. Two records that share no such run are an error
(exit 1).

Standard library only; run it from any directory.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def git(checkout: Path, *args: str, env=None) -> str:
    return subprocess.run(
        ["git", "-C", str(checkout), *args], capture_output=True, text=True, check=True, env=env
    ).stdout.strip()


def describe(checkout: Path) -> tuple[str, str, str]:
    """The checkout's short commit, the tree id of its files and its label."""
    commit = git(checkout, "rev-parse", "--short", "HEAD")
    with tempfile.TemporaryDirectory() as scratch:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(scratch) / "index")}
        git(checkout, "read-tree", "HEAD", env=env)
        git(checkout, "add", "--all", env=env)
        tree = git(checkout, "write-tree", env=env)
    if tree == git(checkout, "rev-parse", "HEAD^{tree}"):
        return commit, tree, commit
    return commit, tree, f"{commit}+{tree[:10]}"


def holds_bytecode(checkout: Path) -> bool:
    """Whether ``checkout`` holds a ``__pycache__`` directory under ``src/``.

    A checkout that does imports its package without compiling it, so its
    import-bound metrics (``setup_s`` first) would not compare with one that
    does not.
    """
    return any((checkout / "src").rglob("__pycache__"))


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run in ``checkout``: its final JSON line, flattened.

    A run that fails, or whose last line is not a result, ends the tool with
    one ``error:`` line naming the run and the last line of its stderr.
    """
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True,
    )
    result = None
    if done.returncode == 0:
        try:
            result = json.loads(done.stdout.splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            pass
    if result is None:
        status = f"exit status {done.returncode}"
        if done.returncode == 0:
            status += " without a result line"
        last = (done.stderr.strip().splitlines() or ["(none)"])[-1]
        sys.exit(f"error: perfbench/run.py in {checkout}, workload {workload}, seed {seed}: "
                 f"{status}; last stderr line: {last}")
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: entry["value"] for name, entry in result["metrics"].items()},
    }


def load_record(path: Path, commit: str, tree: str, label: str) -> dict:
    if path.exists():
        record = json.loads(path.read_text())
        if (record["commit"], record["tree"]) != (commit, tree):
            sys.exit(f"error: {path} records {record['label']}, not this checkout's tree {tree}")
        return record
    return {"label": label, "commit": commit, "tree": tree, "environment": environment(),
            "runs": []}


def record(args) -> int:
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    targets = {}
    for checkout in (Path(c).resolve() for c in args.checkout):
        try:
            commit, tree, label = describe(checkout)
        except subprocess.CalledProcessError as exc:
            last = (exc.stderr.strip().splitlines() or ["(none)"])[-1]
            sys.exit(f"error: {checkout} is not a git checkout with a commit; git said: {last}")
        path = Path(args.out_dir) / f"BENCH_{label}.json"
        if path in targets:
            sys.exit(f"error: {targets[path][0]} and {checkout} hold the same tree; "
                     f"both would record to {path.name}")
        targets[path] = (checkout, load_record(path, commit, tree, label))
    compiled = {checkout: holds_bytecode(checkout) for checkout, _ in targets.values()}
    if len(set(compiled.values())) > 1:
        holder = next(c for c, held in compiled.items() if held)
        other = next(c for c, held in compiled.items() if not held)
        sys.exit(f"error: {holder} holds __pycache__ under src/ and {other} does not; "
                 "remove it so that every checkout imports alike")
    Path(args.out_dir).mkdir(parents=True, exist_ok=True)
    order = list(targets.items())
    for workload in args.workload:
        for turn, seed in enumerate(args.seed):
            shift = turn % len(order)
            for path, (checkout, rec) in order[shift:] + order[:shift]:
                run = run_once(checkout, workload, seed, seconds, args.trace)
                rec["runs"].append(run)
                path.write_text(json.dumps(rec, indent=1) + "\n")
                print(f"{path.name} {workload} seed {seed}: "
                      + " ".join(f"{k}={v:.6g}" for k, v in run["metrics"].items() if v),
                      flush=True)
    return 0


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def quartile_spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def compare_records(a: dict, b: dict, declared: dict) -> list[dict]:
    """One row per workload, trace mode and metric present in both records."""
    def by_key(rec):
        runs = {}
        for run in rec["runs"]:
            runs.setdefault((run["workload"], run["trace"]), {})[run["seed"]] = run
        return runs

    runs_a, runs_b = by_key(a), by_key(b)
    rows = []
    for key in sorted(set(runs_a) & set(runs_b)):
        seeds = sorted(set(runs_a[key]) & set(runs_b[key]))
        if not seeds:
            continue
        for name in runs_a[key][seeds[0]]["metrics"]:
            lower = declared.get(name, {}).get("better", "lower") == "lower"
            pairs = [(runs_a[key][s]["metrics"][name], runs_b[key][s]["metrics"][name]) for s in seeds]
            values_a = [x for x, _ in pairs]
            values_b = [y for _, y in pairs]
            median_a, median_b = statistics.median(values_a), statistics.median(values_b)
            rows.append({
                "workload": key[0], "trace": key[1], "metric": name, "pairs": len(pairs),
                "median_a": median_a, "median_b": median_b,
                "ratio": median_b / median_a if median_a else None,
                "spread_a": quartile_spread(values_a),
                "wins_b": sum(1 for x, y in pairs if (y < x if lower else y > x)),
                "lower": lower,
                "bound": declared.get(name, {}).get("bound"),
            })
    return rows


def worse_beyond_bound(row: dict) -> bool:
    if row["bound"] is None or row["ratio"] is None:
        return False
    return row["ratio"] > 1 + row["bound"] if row["lower"] else row["ratio"] < 1 - row["bound"]


def compare(args) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in args.compare)
    rows = compare_records(a, b, declared_metrics())
    if not rows:
        print(f"error: {a['label']} and {b['label']} share no run of one workload, "
              "trace mode and seed", file=sys.stderr)
        return 1
    print(f"A = {a['label']}, B = {b['label']}; ratio = B/A of the medians")
    print(f"{'workload':<16}{'metric':<44}{'pairs':>6}{'median A':>12}{'median B':>12}"
          f"{'B/A':>8}{'A q3-q1':>11}{'B won':>7}")

    for row in rows:
        if not (row["median_a"] or row["median_b"]):
            continue
        ratio = "-" if row["ratio"] is None else f"{row['ratio']:.3f}"
        workload = row["workload"] + (" (trace)" if row["trace"] else "")
        print(f"{workload:<16}{row['metric']:<44}{row['pairs']:>6}{row['median_a']:>12.5g}"
              f"{row['median_b']:>12.5g}{ratio:>8}{row['spread_a']:>11.4g}"
              f"{row['wins_b']:>4}/{row['pairs']:<2}{' !' if worse_beyond_bound(row) else ''}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two BENCH_*.json records instead of recording")
    parser.add_argument("--checkout", action="append", default=[],
                        help="checkout to run the benchmark in (repeatable)")
    parser.add_argument("--workload", nargs="+", default=[])
    parser.add_argument("--seed", type=int, nargs="+", default=[])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", default=str(ROOT))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(args)
    if not (args.checkout and args.workload and args.seed):
        parser.error("recording needs --checkout, --workload and --seed")
    return record(args)


if __name__ == "__main__":
    sys.exit(main())

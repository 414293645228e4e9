"""Benchmark of the ``eventposet`` library and CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.

``--trace 0`` runs the workload as a closed loop for S seconds with tracing
off, checks every answer against the workload's oracle outside the timed
spans, and reports the end-to-end metrics of ``BENCHMARK.json``. Set-up is
timed in this process and in four more fresh processes; ``setup_s`` is the
median.

``--trace 1`` runs a fixed, seeded list of rounds (about S seconds' worth)
twice, untraced and then traced, and reports the per-layer metrics of
``BENCHMARK.json``, including the tracing overhead. Counts depend only on
the workload, the seed and S, so two traced runs agree exactly. The spans
are written to ``perfbench/out/trace-<workload>-<seed>.json``.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracer as tracing
from workloads import OUT, ROOT, SRC, WORKLOADS

SETUP_SAMPLES = 5
REPORTED_FAILURES = 5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def declared_metrics() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def use_checkout_sources() -> None:
    """Put ``src/`` of this checkout first on the import path, or exit."""
    if not (SRC / "eventposet" / "__init__.py").is_file():
        sys.exit(f"error: no eventposet sources under {SRC}")
    sys.path.insert(0, str(SRC))


def check_origin() -> None:
    origin = Path(sys.modules["eventposet"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        sys.exit(f"error: eventposet was imported from {origin}, not from {SRC}")


def timed_setup(workload, data):
    """The set-up's state and its scaled seconds (see ``speed``)."""
    before = [speed.reference() for _ in range(3)]
    start = time.perf_counter()
    state = workload.setup(data)
    wall = time.perf_counter() - start
    after = [speed.reference() for _ in range(3)]
    local = statistics.median(seconds for _, seconds in before + after)
    return state, wall * speed.REFERENCE_S / local


def probe_setups(args, count: int) -> list[float]:
    """Time the set-up in ``count`` fresh processes, one after another."""
    samples = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


class Tally:
    """Wall times, reference times and failures of the operations of one pass."""

    def __init__(self):
        self.walls: list[float] = []
        self.references = [speed.reference()]
        self.failed = 0

    @property
    def latencies(self) -> list[float]:
        """Scaled seconds of each operation (see ``speed``)."""
        return speed.scale(self.walls, self.references)

    def run(self, workload, state, ops, pause=contextlib.nullcontext) -> None:
        """Run and check one round; ``pause`` is entered around each check."""
        for op, seconds, reference, result, error in workload.run_round(state, ops):
            self.walls.append(seconds)
            self.references.append(reference)
            if error is None:
                try:
                    with pause():
                        ok = workload.check(state, op, result)
                except Exception as exc:  # a check that breaks is a failure
                    ok, error = False, exc
            if error is not None or not ok:
                self.failed += 1
                if self.failed <= REPORTED_FAILURES:
                    print(f"FAILED {op!r}: {error!r}" if error else f"WRONG {op!r}", file=sys.stderr)


def quantile(values: list[float], share: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(share * 100) - 1]


def run_end_to_end(args, workload, units) -> dict:
    data = workload.inputs(args.seed)
    expected = workload.oracle(args.seed, data)
    # The benchmark's own inputs and oracles stay alive for the whole run;
    # freezing them keeps the collector from rescanning them inside timed
    # operations. What set-up builds is not frozen, so the collector's
    # cost of the program's long-lived state stays in the timed spans.
    gc.freeze()
    state, first_setup = timed_setup(workload, data)
    state.oracle = expected
    check_origin()
    setup_errors = workload.setup_errors(state)
    setups = [first_setup, *probe_setups(args, SETUP_SAMPLES - 1)]

    rng = random.Random(f"{args.seed}:ops")
    tally = Tally()
    start = time.perf_counter()
    while True:
        tally.run(workload, state, workload.make_round(state, rng))
        if time.perf_counter() - start >= args.seconds:
            break
    latencies = tally.latencies
    attempted, failed = len(latencies), tally.failed + len(setup_errors)
    p90 = quantile(latencies, 0.9)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": attempted / sum(latencies),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_p90_ms": 1000 * p90,
        "ok_ratio": (attempted - min(failed, attempted)) / attempted,
        "peak_rss_mib": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if workload.in_process
            else state.peak_rss_kib
        ) / 1024,
    }
    for error in setup_errors:
        print(f"SETUP WRONG: {error}", file=sys.stderr)
    beyond = sum(1 for x in latencies if x > p90)
    walls = tally.walls
    notes = {
        "setup_s": f"median of {len(setups)} set-ups, first in this process",
        "ops_per_s": f"{attempted} operations over {sum(latencies):.3f} busy seconds "
                     f"({sum(walls):.3f} wall)",
        "op_p50_ms": f"median of {attempted} operations (wall {1000 * statistics.median(walls):.4g} ms)",
        "op_p90_ms": f"{attempted} operations, {beyond} beyond it (wall {1000 * quantile(walls, 0.9):.4g} ms)",
        "ok_ratio": f"fail_ratio = {failed / attempted:.6g} ({failed} of {attempted})",
        "peak_rss_mib": "benchmark process" if workload.in_process else "largest CLI child process",
    }
    print(f"times are scaled to a {1000 * speed.REFERENCE_S:g} ms reference loop; its median here was "
          f"{1000 * statistics.median(seconds for _, seconds in tally.references):.4g} ms over {len(tally.references)} timings")
    for name, value in metrics.items():
        print(f"{name:<14} {value:>14.6g} {units[name]:<6} {notes[name]}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_traced(args, workload, units) -> dict:
    OUT.mkdir(exist_ok=True)
    data = workload.inputs(args.seed)
    expected = workload.oracle(args.seed, data)
    # Imported before both passes, so that neither set-up pays for it.
    importlib.import_module(workload.module)
    rounds = max(1, int(args.seconds // workload.trace_round_seconds))
    rng = random.Random(f"{args.seed}:ops")
    passes = {}
    tracer = tracing.Tracer()
    # As in run_end_to_end: only the benchmark's own objects are frozen.
    gc.freeze()
    for traced in (False, True):
        if traced and workload.in_process:
            tracer.install()
        state, setup = timed_setup(workload, data)
        state.oracle = expected
        state.trace = "traced" if traced else "untraced"
        if not traced:
            check_origin()
            ops = [workload.make_round(state, rng) for _ in range(rounds)]
            # An uncounted first round, so that the untraced pass does not
            # pay alone for first-touch memory and file caches.
            Tally().run(workload, state, ops[0])
        tally = Tally()
        pause = tracer.paused if traced and workload.in_process else contextlib.nullcontext
        for round_ops in ops:
            tally.run(workload, state, round_ops, pause)
        tracer.uninstall()
        passes[traced] = (setup, tally)
        if not traced:
            workload_metrics = workload.trace_metrics(state, tally.latencies)
            # Dropped before the traced pass, whose collector would
            # otherwise also scan the untraced pass's state.
            state = None

    untraced_setup, untraced = passes[False]
    traced_setup, traced = passes[True]
    summary = (
        tracer.summary() if workload.in_process
        else tracing.merge([report["trace"] for report in state.reports])
    )
    metrics = dict.fromkeys(units, 0.0)
    metrics.update(tracing.layer_metrics(summary))
    metrics.update(workload_metrics)
    metrics["tracing.overhead_ratio"] = (traced_setup + sum(traced.latencies)) / (
        untraced_setup + sum(untraced.latencies)
    )
    unknown = set(metrics) - set(units)
    if unknown:
        sys.exit(f"error: metrics missing from BENCHMARK.json: {sorted(unknown)}")

    trace_file = OUT / f"trace-{workload.name}-{args.seed}.json"
    spans = summary.pop("spans")
    trace_file.write_text(json.dumps({
        "workload": workload.name, "seed": args.seed, "rounds": rounds,
        "environment": environment(), "totals": summary,
        "span_fields": ["process", "index", "name", "start", "end", "parent"] if not workload.in_process
        else ["index", "name", "start", "end", "parent"],
        "spans": spans,
    }))
    for name, value in metrics.items():
        if value:
            print(f"{name:<48} {value:>14.6g} {units[name]}")
    print(f"{rounds} rounds; {summary['span_count']} spans, {len(spans)} written to {trace_file.relative_to(ROOT)}")
    attempted = len(untraced.walls) + len(traced.walls)
    failed = untraced.failed + traced.failed
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    use_checkout_sources()
    if args.setup_probe:
        data = workload.inputs(args.seed)
        gc.freeze()
        _, seconds = timed_setup(workload, data)
        check_origin()
        print(json.dumps({"setup_s": seconds}))
        return 0
    end_to_end, per_layer = declared_metrics()
    env = environment()
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    units = per_layer if args.trace else end_to_end
    with workload.running():
        result = (run_traced if args.trace else run_end_to_end)(args, workload, units)
    result["metrics"] = {
        name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The four benchmark workloads.

Each workload is a closed loop with one client in one process: the next
operation starts when the previous one has returned and been checked.
Operations come in rounds. A round holds a fixed multiset of operation
kinds in seeded order with seeded parameters, and the loop stops only at
the end of a round, so every run measures the same mix. The mixes are
weighted so that neither the median nor the 90th percentile falls on the
boundary between two kinds of operation of very different cost.

A workload provides:

* ``inputs(seed)``: the program's inputs, made with stdlib ``random``;
* ``oracle(seed, data)``: what the checks compare against, stdlib only;
* ``setup(data)``: imports the program and builds what the loop reuses;
  this is what ``setup_s`` times, and the runner stores the oracle on the
  state it returns;
* ``running()``: a context around set-up and the loop for the benchmark's
  own helpers, started and stopped outside the timed spans;
* ``make_round(state, rng)`` and ``run_round(state, ops)``: the operations
  and their timed execution;
* ``check(state, op, result)``: the oracle comparison, never timed.
"""
from __future__ import annotations

import contextlib
import importlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import inputs
import oracles
import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"


class Workload:
    name = ""
    module = "eventposet"
    # False when the program runs in child processes.
    in_process = True
    # Rough wall seconds of one untraced plus one traced round; sizes the
    # traced run to about ``--seconds``.
    trace_round_seconds = 1.0

    def inputs(self, seed: int):
        return None

    def oracle(self, seed: int, data):
        return None

    def setup(self, data):
        importlib.import_module(self.module)
        return SimpleNamespace(ep=sys.modules["eventposet"], data=data)

    def running(self):
        return contextlib.nullcontext()

    def setup_errors(self, state) -> list[str]:
        """Differences between what setup built and the oracle's view of it."""
        return []

    def make_round(self, state, rng: random.Random) -> list:
        raise NotImplementedError

    def run(self, state, op):
        raise NotImplementedError

    def run_round(self, state, ops):
        """Yield (op, seconds, reference, result, error) per operation.

        ``reference`` is the reference loop's (stamp, seconds) (see ``speed``),
        taken right after the operation.
        """
        clock = time.perf_counter
        for op in ops:
            start = clock()
            try:
                result, error = self.run(state, op), None
            except Exception as exc:  # counted as a failure by the caller
                result, error = None, exc
            seconds = clock() - start
            yield op, seconds, speed.reference(), result, error

    def check(self, state, op, result) -> bool:
        raise NotImplementedError

    def trace_metrics(self, state, latencies: list[float]) -> dict[str, float]:
        """Per-layer metrics read from the untraced pass of a traced run."""
        return {}


# ---------------------------------------------------------------------------


class LatticeQueries(Workload):
    """Query layers at the 4096-event cap; the poset is built once in setup."""

    name = "lattice-queries"
    size = 64
    rest_pairs = (("P", "Q"), ("Q", "R"), ("P", "R"))
    trace_round_seconds = 2.0

    def oracle(self, seed, data):
        oracle = oracles.LatticeOracle(self.size, self.size)
        events = range(oracle.size)
        between = {
            pair: [x for x in events if oracle.collinearity(x, *pair) == "II"]
            for pair in self.rest_pairs
        }
        quantifiable = {
            pair: [
                x for x in events
                if all(
                    oracle.forward(c, x) is not None and oracle.backward(c, x) is not None
                    for c in pair
                )
            ]
            for pair in self.rest_pairs
        }
        return SimpleNamespace(lattice=oracle, between=between, quantifiable=quantifiable)

    def setup(self, data):
        state = super().setup(data)
        lattice = state.ep.standard_lattice(self.size, self.size)
        state.poset, state.chains = lattice.poset, lattice.chains
        return state

    def setup_errors(self, state):
        oracle = state.oracle.lattice
        if state.poset.event_count != oracle.size:
            return [f"lattice has {state.poset.event_count} events"]
        return [
            f"chain {name} differs from its closed form"
            for name, chain in oracle.chains.items()
            if name not in state.chains or state.chains[name].elements != chain.elements
        ]

    def make_round(self, state, rng):
        oracle = state.oracle
        # 25 operations. Sorted by cost: 8 relations (about 0.3 ms), 9 queries
        # of about 3 ms (a pair, a distance and a subspace projection per
        # rest pair), 3 collinearity rows (about 5 ms) and 5 projection
        # tables (about 30 ms, one per chain). The median falls in the
        # middle of the 3 ms queries and the 90th percentile in the middle
        # of the tables, each far from a gap between groups.
        ops = [("table", name) for name in ("P", "Q", "R", "T", "S")]
        ops += [("relation",)] * 8
        for p, q in self.rest_pairs:
            lengths = oracle.lattice.chains[p].length, oracle.lattice.chains[q].length
            ops.append(("row", p, q, rng.randrange(self.size)))
            a, b = rng.choice(oracle.between[(p, q)]), rng.choice(oracle.between[(p, q)])
            ops.append(("pair", p, q, a, b, rng.randint(1, 9), rng.randint(1, 9)))
            ops.append(("distance", p, q, rng.randrange(lengths[0]), rng.randrange(lengths[1])))
            x, y = rng.choice(oracle.quantifiable[(p, q)]), rng.choice(oracle.quantifiable[(p, q)])
            ops.append(("subspace", p, q, x, y))
        rng.shuffle(ops)
        return ops

    def run(self, state, op):
        ep, chains = state.ep, state.chains
        kind = op[0]
        if kind == "table":
            chain = chains[op[1]].chain
            return [ep.classify_projection(x, chain) for x in range(state.poset.event_count)]
        if kind == "row":
            p, q = chains[op[1]].chain, chains[op[2]].chain
            row = []
            for v in range(self.size):
                x = op[3] * self.size + v
                try:
                    row.append((ep.collinearity_case(x, p, q).value, ep.betweenness_of(x, p, q).value))
                except ep.MissingProjectionError:
                    row.append(None)
            return row
        if kind == "pair":
            _, p, q, a, b, m, n = op
            pair = ep.interval_pair_two_chains(ep.GeneralizedInterval(a, b), chains[p], chains[q])
            scalar = ep.interval_scalar(pair)
            symmetric, antisymmetric = ep.decompose(pair)
            moved = ep.apply_pair_transform(pair, ep.PairTransform(m, n))
            return pair, scalar, symmetric, antisymmetric, moved
        if kind == "distance":
            _, p, q, i, j = op
            try:
                return ep.chain_distance(chains[p], chains[q], chains[p].elements[i], chains[q].elements[j])
            except ep.OutOfRangeError:
                return "out-of-range"
        if kind == "relation":
            relation = ep.detect_linear_relation(chains["S"], chains["P"])
            return relation.m, relation.n
        _, p, q, x, y = op
        return ep.subspace_projection(x, y, chains[p], chains[q])

    def check(self, state, op, result):
        oracle = state.oracle.lattice
        kind = op[0]
        if kind == "table":
            for x, outcome in enumerate(result):
                forward, backward = oracle.forward(op[1], x), oracle.backward(op[1], x)
                case = {
                    (True, True): "both", (True, False): "forward-only",
                    (False, True): "backward-only", (False, False): "incomparable",
                }[(forward is not None, backward is not None)]
                if (outcome.forward, outcome.backward, outcome.case.value) != (forward, backward, case):
                    return False
            return True
        if kind == "row":
            for v, got in enumerate(result):
                case = oracle.collinearity(op[3] * self.size + v, op[1], op[2])
                want = None if case is None else (case, oracle.side(case))
                if got != want:
                    return False
            return True
        if kind == "pair":
            _, p, q, a, b, m, n = op
            pair, scalar, symmetric, antisymmetric, moved = result
            ticks_p, ticks_q = oracle.ticks[p][0], oracle.ticks[q][0]
            first, second = ticks_p[b] - ticks_p[a], ticks_q[b] - ticks_q[a]
            product = Fraction(first * second)
            character = "time-like" if product > 0 else "space-like" if product < 0 else "null"
            mean, half = Fraction(first + second, 2), Fraction(first - second, 2)
            want_moved = oracles.transform_pair(Fraction(first), Fraction(second), Fraction(m), Fraction(n))
            return (
                (pair.first, pair.second) == (first, second)
                and (scalar.value, scalar.character.value) == (product, character)
                and (symmetric.first, symmetric.second) == (mean, mean)
                and (antisymmetric.first, antisymmetric.second) == (half, -half)
                and oracles.same_number(moved.first, want_moved[0])
                and oracles.same_number(moved.second, want_moved[1])
            )
        if kind == "distance":
            want = oracle.chain_distance(*op[1:])
            return result == ("out-of-range" if want is None else want)
        if kind == "relation":
            return result == (4, 1)
        _, p, q, x, y = op
        return result == oracle.subspace_projection(x, y, p, q)


# ---------------------------------------------------------------------------


class DagBuild(Workload):
    """Build, text round trip, chain validation and one projection sweep."""

    name = "dag-build"
    # (kind, events, density, times per round). Sorted by cost, a round of
    # 15 runs the sparser N = 1024 DAG (under 0.01 s) six times, the denser
    # one (about 0.04 s) three times, each sprinkling (0.06 and 0.27 s) and
    # the sparser N = 4096 DAG (0.3 s) once, and the denser one (0.55 s)
    # three times. The median falls in the middle of the N = 1024, density
    # 0.01 DAGs and the 90th percentile inside the densest DAGs, each away
    # from a gap between groups. Both are random DAGs, whose cost varies
    # less from seed to seed than a sprinkling's.
    corpus = (
        ("dag", 1024, 0.002, 6),
        ("dag", 1024, 0.01, 3),
        ("dag", 4096, 0.002, 1),
        ("dag", 4096, 0.01, 3),
        ("sprinkling", 512, None, 1),
        ("sprinkling", 1024, None, 1),
    )
    samples_per_op = 2
    trace_round_seconds = 12.0

    def inputs(self, seed):
        rng = random.Random(seed)
        cases = []
        for kind, n, density, _ in self.corpus:
            if kind == "dag":
                cases.append((n, inputs.geometric_dag(rng, n, density)))
            else:
                cases.append((n, inputs.sprinkling(rng, n)[1]))
        return cases

    def oracle(self, seed, data):
        rng = random.Random(seed)
        closures = []
        for n, relations in data:
            closure = oracles.DagOracle(n, relations)
            for start in rng.sample(range(n), 4):
                if closure.bfs(start) != closure.above[start]:
                    raise AssertionError("closure and breadth-first search disagree")
            closures.append(closure)
        return closures

    def make_round(self, state, rng):
        ops = []
        for index, (_, n, _, repeats) in enumerate(self.corpus):
            for _ in range(repeats):
                samples = tuple(rng.randrange(n) for _ in range(self.samples_per_op))
                ops.append(("build", index, rng.randrange(1 << 30), samples))
        rng.shuffle(ops)
        return ops

    def run(self, state, op):
        ep = state.ep
        n, relations = state.data[op[1]]
        poset = ep.build_poset(n, relations)
        parsed, _ = ep.parse_poset_text(ep.format_poset_text(poset))
        walks = ep.maximal_chains(parsed, op[2], 3)
        target = [ep.Chain(parsed, walk) for walk in walks][0]
        projection = [ep.forward_project(x, target) for x in range(n)]
        return poset, parsed, walks, projection

    def check(self, state, op, result):
        n, oracle = state.data[op[1]][0], state.oracle[op[1]]
        poset, parsed, walks, projection = result
        for built in (poset, parsed):
            if [built.above_bits(x) for x in range(n)] != oracle.above:
                return False
        return (
            all(oracle.bfs(x) == poset.above_bits(x) for x in op[3])
            and len(walks) == 3
            and all(oracle.maximal_walk(walk) for walk in walks)
            and projection == [oracle.forward_scan(x, walks[0]) for x in range(n)]
        )


# ---------------------------------------------------------------------------

VERIFY_CHECKS = (
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
)
VERIFY_FOR_CHECKS = (
    "order-axioms",
    "reduction-roundtrip",
    "text-roundtrip",
    "projection-oracle",
    "projection-monotonicity",
    "interval-length-additivity",
)


class VerifySuite(Workload):
    """The invariant suite: millions of tiny calls in exhaustive sweeps."""

    name = "verify-suite"
    module = "eventposet.verify"
    sprinkling_events = 512
    sampled_chains = 3
    # Sampled walks are cut to this length: the length-additivity check is
    # cubic in it, and uncut walks of 4 to 20 events made a seed's whole
    # run up to 40% slower or faster.
    chain_length = 12
    trace_round_seconds = 8.0

    def inputs(self, seed):
        rng = random.Random(seed)
        relations = inputs.sprinkling(rng, self.sprinkling_events)[1]
        # Isotonic valuations with steps of 0..3 halves, zero steps included.
        steps = [
            [Fraction(rng.randint(0, 3), 2) for _ in range(self.sprinkling_events)]
            for _ in range(self.sampled_chains)
        ]
        return SimpleNamespace(relations=relations, steps=steps, walk_seed=seed)

    def setup(self, data):
        state = super().setup(data)
        ep = state.ep
        state.verify = sys.modules["eventposet.verify"]
        state.poset = ep.build_poset(self.sprinkling_events, data.relations)
        walks = ep.maximal_chains(state.poset, data.walk_seed, 8 * self.sampled_chains)
        walks = [walk[: self.chain_length] for walk in sorted(walks, key=len, reverse=True)]
        state.chains = {}
        for i, (walk, steps) in enumerate(zip(walks[: self.sampled_chains], data.steps)):
            values, total = [], Fraction(0)
            for step in steps[: len(walk)]:
                total += step
                values.append(total)
            state.chains[f"W{i}"] = ep.make_valued_chain(state.poset, walk, values, f"W{i}")
        return state

    def make_round(self, state, rng):
        # A round is run_all once and run_for once: 37 checks. Every run_for
        # check costs more than the median check, which then falls in the
        # middle of five run_all checks of 3.5-5 ms on the fixed corpus, so
        # it does not depend on the seed.
        return [("run_all", name) for name in VERIFY_CHECKS] + [
            ("run_for", name) for name in VERIFY_FOR_CHECKS
        ]

    def run_round(self, state, ops):
        split = len(VERIFY_CHECKS)
        yield from self._run_suite(ops[:split], lambda report: state.verify.run_all(report=report))
        yield from self._run_suite(
            ops[split:], lambda report: state.verify.run_for(state.poset, state.chains, report=report)
        )

    @staticmethod
    def _run_suite(expected, suite):
        # One operation is one check, timed between report callbacks; the
        # reference loop runs inside the callback, outside both checks.
        clock = time.perf_counter
        marks = []
        resumed = clock()

        def report(line):
            nonlocal resumed
            seconds = clock() - resumed
            marks.append((seconds, speed.reference(), line))
            resumed = clock()

        try:
            results, error = suite(report), None
        except Exception as exc:  # the unreported checks fail
            results, error = [], exc
        for k, op in enumerate(expected):
            if k < len(marks) and k < len(results):
                seconds, reference, line = marks[k]
                yield op, seconds, reference, (line, results[k]), None
            else:
                yield op, 0.0, speed.reference(), None, error or RuntimeError("check not reported")

    def check(self, state, op, result):
        line, outcome = result
        return line == f"[PASS] {op[1]}" and outcome.name == op[1] and outcome.passed

    def trace_metrics(self, state, latencies):
        per_round = len(VERIFY_CHECKS) + len(VERIFY_FOR_CHECKS)
        rounds = len(latencies) // per_round
        metrics = {"verify.wall_ms": 1000 * sum(latencies) / rounds}
        for k, name in enumerate(VERIFY_CHECKS):
            seconds = sum(latencies[r * per_round + k] for r in range(rounds)) / rounds
            metrics[verify_metric(name)] = 1000 * seconds
        return metrics


def verify_metric(check: str) -> str:
    """Metric name of a check: ``order-axioms[random-0]`` -> ``verify.order-axioms.random-0_ms``."""
    return "verify." + check.replace("[", ".").replace("]", "") + "_ms"


# ---------------------------------------------------------------------------


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


class CliOneshot(Workload):
    """One-shot CLI calls: interpreter start, import and argparse count."""

    name = "cli-oneshot"
    module = "eventposet.cli"
    in_process = False
    # The running launcher.py process, inside ``running()``.
    launcher = None
    # A build of this size takes about twice as long as the other five
    # commands, which are close to one another; so the 90th percentile
    # falls inside the builds, not on the noise tail of the other commands.
    random_events = 1536
    random_density = 0.005
    classify_pairs = (("P", "Q"), ("Q", "R"), ("P", "R"), ("P", "T"))
    trace_round_seconds = 4.0

    def oracle(self, seed, data):
        small, medium = oracles.LatticeOracle(16, 16), oracles.LatticeOracle(12, 12)
        between = [x for x in range(medium.size) if medium.collinearity(x, "P", "Q") == "II"]
        return SimpleNamespace(small=small, medium=medium, between=between)

    def setup(self, data):
        state = super().setup(data)
        state.env = child_env()
        # None: plain ``python -m eventposet``; "untraced"/"traced": through
        # cli_child.py, which reports its import and command time.
        state.trace = None
        state.reports = []
        # The largest ru_maxrss of any CLI child, in KiB.
        state.peak_rss_kib = 0
        return state

    @contextlib.contextmanager
    def running(self):
        """Start ``launcher.py``, which starts the CLI children (see there why)."""
        with subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "launcher.py")],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        ) as launcher:
            self.launcher = launcher
            try:
                yield
            finally:
                self.launcher = None

    def make_round(self, state, rng):
        def rational():
            return str(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))

        a, b = rng.choice(state.oracle.between), rng.choice(state.oracle.between)
        ops = [
            ("scalar", "--pair", rational(), rational()),
            ("transform", "--m", str(rng.randint(1, 9)), "--n", str(rng.randint(1, 9)),
             "--pair", rational(), rational()),
            ("project", "--gen", "lattice:16,16", "--chain", rng.choice("PQRTS")),
            ("quantify", "--gen", "lattice:12,12", "--interval", str(a), str(b),
             "--chains", "P", "Q"),
            ("classify", "--gen", "lattice:12,12", "--chains", *rng.choice(self.classify_pairs)),
            ("build", "--gen",
             f"random:{rng.randrange(1 << 20)},{self.random_events},{self.random_density}"),
        ]
        rng.shuffle(ops)
        return ops

    def run(self, state, op):
        if state.trace is None:
            command = [sys.executable, "-m", "eventposet", *op]
            env = state.env
        else:
            report = OUT / f"cli-child-{os.getpid()}.json"
            command = [sys.executable, str(ROOT / "perfbench" / "cli_child.py"), *op]
            env = dict(state.env, PERFBENCH_CHILD_OUT=str(report),
                       PERFBENCH_TRACE="1" if state.trace == "traced" else "0")
        self.launcher.stdin.write(json.dumps({"command": command, "env": env}) + "\n")
        self.launcher.stdin.flush()
        done = json.loads(self.launcher.stdout.readline())
        state.peak_rss_kib = max(state.peak_rss_kib, done["maxrss_kib"])
        if state.trace is not None and done["code"] == 0:
            state.reports.append(json.loads(report.read_text()))
            report.unlink()
        return done["code"], done["stdout"]

    def check(self, state, op, result):
        code, stdout = result
        if code != 0:
            return False
        lines = dict(line.split(" = ", 1) for line in stdout.splitlines() if " = " in line)
        kind = op[0]
        if kind == "scalar":
            return self._check_scalar(lines, Fraction(op[2]), Fraction(op[3]))
        if kind == "transform":
            return self._check_transform(lines, *(Fraction(op[i]) for i in (2, 4, 6, 7)))
        if kind == "project":
            return self._check_project(state.oracle.small, op[4], stdout)
        if kind == "quantify":
            return self._check_quantify(state.oracle.medium, int(op[4]), int(op[5]), lines)
        if kind == "classify":
            return self._check_classify(state.oracle.medium, op[4], op[5], stdout)
        return self._check_build(state, op[2], stdout)

    def trace_metrics(self, state, latencies):
        bare = []
        for _ in latencies:
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=state.env, check=True, timeout=120)
            bare.append(time.perf_counter() - start)
        return {
            "cli.interp_ms": 1000 * statistics.median(bare),
            "cli.import_ms": 1000 * statistics.median(r["import_s"] for r in state.reports),
            "cli.command_ms": 1000 * statistics.median(r["main_s"] for r in state.reports),
        }

    @staticmethod
    def _character(value: Fraction) -> str:
        return "time-like" if value > 0 else "space-like" if value < 0 else "null"

    def _check_scalar(self, lines, first, second):
        product = first * second
        root = oracles.exact_sqrt(abs(product))
        sigma = str(root) if root is not None else None
        got_sigma = lines.get("sigma", "")
        imaginary = got_sigma.endswith("i")
        magnitude = got_sigma[:-1] if imaginary else got_sigma
        sigma_ok = (
            magnitude == sigma if sigma is not None
            else oracles.same_number(float(magnitude), abs(float(product)) ** 0.5)
        )
        return (
            lines.get("scalar") == f"{product} ({self._character(product)})"
            and sigma_ok and imaginary == (product < 0)
            and lines.get("dt^2") == str(((first + second) / 2) ** 2)
            and lines.get("dx^2") == str(((first - second) / 2) ** 2)
        )

    def _check_transform(self, lines, m, n, first, second):
        want = oracles.transform_pair(first, second, m, n)
        beta = (m - n) / (m + n)
        root = oracles.exact_sqrt(m * n)
        gamma = (m + n) / (2 * root) if root is not None else float(m + n) / (2 * float(m * n) ** 0.5)
        boost = gamma * beta if root is not None else gamma * float(beta)
        return (
            _same_numbers(lines.get("pair'", "").strip("()"), want)
            and lines.get("beta") == str(beta)
            and _same_numbers(lines.get("gamma", ""), [gamma])
            and _same_numbers(lines.get("matrix", "").replace("[", "").replace("]", ""),
                              [gamma, boost, boost, gamma])
        )

    def _check_project(self, oracle, chain, stdout):
        want = []
        for x in range(oracle.size):
            f, b = oracle.ticks[chain][0][x], oracle.ticks[chain][1][x]
            want.append(f"{x} ({'.' if f is None else f},{'.' if b is None else b})")
        return stdout.splitlines() == want

    def _check_quantify(self, oracle, a, b, lines):
        ticks_p, ticks_q = oracle.ticks["P"][0], oracle.ticks["Q"][0]
        first, second = ticks_p[b] - ticks_p[a], ticks_q[b] - ticks_q[a]
        product = Fraction(first * second)
        mean, half = Fraction(first + second, 2), Fraction(first - second, 2)
        kind = "chain-like" if product > 0 else "antichain-like" if product < 0 else "projection-like"
        return (
            lines.get("pair") == f"({first}, {second})"
            and lines.get("symmetric part") == f"({mean}, {mean})"
            and lines.get("antisymmetric part") == f"({half}, {-half})"
            and lines.get("class") == ("pure " if abs(first) == abs(second) else "") + kind
            and lines.get("length") == str(mean)
            and lines.get("distance") == str(half)
            and lines.get("scalar") == f"{product} ({self._character(product)})"
        )

    def _check_classify(self, oracle, p, q, stdout):
        want = []
        for x in range(oracle.size):
            case = oracle.collinearity(x, p, q)
            if case is None:
                want.append(f"{x} - -")
            else:
                side = oracle.side(case)
                want.append(f"{x} {case} {side if side != 'none' else '-'}")
        return stdout.splitlines() == want

    def _check_build(self, state, spec, stdout):
        seed, events, density = spec.split(":", 1)[1].split(",")
        poset = state.ep.generate_random(int(seed), int(events), float(density))
        return stdout.splitlines() == [
            f"events {poset.event_count}", f"cover edges {len(poset.cover_edges())}"
        ]


def _number(token: str):
    try:
        return Fraction(token)
    except ValueError:
        return float(token)


def _same_numbers(text: str, want) -> bool:
    """``text``, comma-separated, holds the numbers ``want`` (see ``oracles.same_number``)."""
    got = text.split(", ")
    return len(got) == len(want) and all(
        oracles.same_number(_number(g), w) for g, w in zip(got, want)
    )


WORKLOADS = {w.name: w for w in (LatticeQueries(), DagBuild(), VerifySuite(), CliOneshot())}

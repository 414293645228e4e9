"""Run-time tracing of the ``eventposet`` layers, from outside ``src/``.

:meth:`Tracer.install` replaces each public function of every loaded
``eventposet`` module with a wrapper that records a span (name, start, end,
parent) and per-name call counts. Modules import each other's functions by
name, so every module attribute bound to the same function object is
replaced, not just the defining one. Chain validation
(``Chain``/``ValuedChain.__post_init__``) and ``Poset.reverse`` get spans
too. The hot primitives ``Poset.leq`` and ``Poset.check_id`` get counts
only: a span per bit test would cost more than the test.

Self time of a span is its duration minus the time covered by its child
spans; it is accumulated as spans close, so it covers every call even when
the stored span list is capped.
"""
from __future__ import annotations

import contextlib
import inspect
import sys
import time
from collections import Counter

MODULES = (
    "poset",
    "chains",
    "projection",
    "structure",
    "intervals",
    "spacetime",
    "generators",
    "textio",
    "dotexport",
    "verify",
    "cli",
)
COUNT_ONLY = (("poset", "Poset", "leq"), ("poset", "Poset", "check_id"))
SPANNED_METHODS = (
    ("chains", "Chain", "__post_init__"),
    ("chains", "ValuedChain", "__post_init__"),
    ("poset", "Poset", "reverse"),
)
TRANSFORMS = ("spacetime.apply_pair_transform", "spacetime.lorentz_apply")
SPAN_CAP = 50_000


class Tracer:
    """Spans and counts for one process; see the module docstring."""

    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.total_s: Counter[str] = Counter()
        self.raised: Counter[str] = Counter()
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.span_count = 0
        self.transforms = 0
        self.inexact = 0
        self._stack: list[list] = []
        self._pairs: dict[tuple, tuple] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap the layers of every loaded ``eventposet`` module."""
        modules = {
            name: sys.modules[f"eventposet.{name}"]
            for name in MODULES
            if f"eventposet.{name}" in sys.modules
        }
        replacements = {}
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                if (
                    callable(value)
                    and not isinstance(value, type)
                    and not attr.startswith("_")
                    and getattr(value, "__module__", None) == module.__name__
                ):
                    replacements[id(value)] = (value, self._spanned(f"{layer}.{attr}", value))
        namespaces = [sys.modules["eventposet"], *modules.values()]
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(namespace, attr, hit[1])
        for layer, cls_name, method in SPANNED_METHODS:
            if layer in modules:
                cls = getattr(modules[layer], cls_name)
                label = f"{layer}.{cls_name}.{method.strip('_')}"
                self._patch(cls, method, self._spanned(label, vars(cls)[method]))
        for layer, cls_name, method in COUNT_ONLY:
            if layer in modules:
                cls = getattr(modules[layer], cls_name)
                self._patch(cls, method, self._counted(f"{layer}.{method}", vars(cls)[method]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    @contextlib.contextmanager
    def paused(self):
        """Run the body untraced, e.g. an oracle check that calls the program."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _counted(self, name: str, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _spanned(self, name: str, fn):
        clock = time.perf_counter
        stack = self._stack
        hook = None
        if name == "structure.check_coordinated":
            hook = self._coordination_hook(inspect.signature(fn))
        elif name in TRANSFORMS:
            hook = self._note_transform

        def spanned(*args, **kwargs):
            index = self.span_count
            self.span_count = index + 1
            frame = [0.0, index]
            parent = stack[-1][1] if stack else -1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.raised[f"{name}:{type(exc).__name__}"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if index < SPAN_CAP:
                    self.spans.append((index, name, start, end, parent))
            if hook is not None:
                hook(args, kwargs, result)
            return result

        spanned.__wrapped__ = fn
        return spanned

    # -- hooks ------------------------------------------------------------

    def _coordination_hook(self, signature: inspect.Signature):
        # A proof is identified by its chain objects and index ranges; the
        # chains are kept alive so that their ids are not reused.
        def note(args, kwargs, result):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            p, q, p_range, q_range = bound.arguments.values()
            p_range = tuple(p_range or (0, len(p) - 1))
            q_range = tuple(q_range or (0, len(q) - 1))
            self._pairs.setdefault((id(p), id(q), p_range, q_range), (p, q))

        return note

    def _note_transform(self, args, kwargs, result) -> None:
        self.transforms += 1
        parts = (result.first, result.second) if hasattr(result, "first") else (result.dt, result.dx)
        if any(isinstance(part, float) for part in parts):
            self.inexact += 1

    # -- results ----------------------------------------------------------

    def summary(self) -> dict:
        """Plain-data totals; summaries of several processes add up."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "raised": dict(self.raised),
            "coordination_pairs": len(self._pairs),
            "transforms": self.transforms,
            "inexact": self.inexact,
            "span_count": self.span_count,
            "spans": [list(span) for span in self.spans],
        }


def merge(summaries: list[dict]) -> dict:
    """Add up summaries; each span gains its process index as a prefix."""
    merged = {
        "calls": Counter(),
        "self_s": Counter(),
        "total_s": Counter(),
        "raised": Counter(),
        "coordination_pairs": 0,
        "transforms": 0,
        "inexact": 0,
        "span_count": 0,
        "spans": [],
    }
    for proc, summary in enumerate(summaries):
        for key in ("calls", "self_s", "total_s", "raised"):
            merged[key].update(summary[key])
        for key in ("coordination_pairs", "transforms", "inexact", "span_count"):
            merged[key] += summary[key]
        merged["spans"].extend([proc, *span] for span in summary["spans"])
    return merged


def layer_metrics(summary: dict) -> dict[str, float]:
    """The per-layer metrics that come from spans and counts."""
    calls, self_s, total_s, raised = (
        summary["calls"], summary["self_s"], summary["total_s"], summary["raised"]
    )

    def layer_sum(table, layer):
        return sum(v for k, v in table.items() if k.split(".", 1)[0] == layer)

    def layer_calls(layer):
        return sum(
            n for k, n in calls.items()
            if k.split(".", 1)[0] == layer and k not in ("poset.leq", "poset.check_id")
        )

    def ratio(num, den):
        return num / den if den else 0.0

    proofs = calls.get("structure.check_coordinated", 0)
    distances = calls.get("intervals.chain_distance", 0)
    out_of_range = raised.get("intervals.chain_distance:OutOfRangeError", 0)
    validate = ("chains.Chain.post_init", "chains.ValuedChain.post_init")
    return {
        "poset.build_ms": 1000 * total_s.get("poset.build_poset", 0.0),
        "poset.build_calls": calls.get("poset.build_poset", 0),
        "poset.leq_calls": calls.get("poset.leq", 0),
        "poset.check_id_calls": calls.get("poset.check_id", 0),
        "chains.validate_ms": 1000 * sum(total_s.get(k, 0.0) for k in validate),
        "chains.calls": layer_calls("chains"),
        "projection.self_ms": 1000 * layer_sum(self_s, "projection"),
        "projection.calls": layer_calls("projection"),
        "structure.self_ms": 1000 * layer_sum(self_s, "structure"),
        "structure.coordination_proofs": proofs,
        "structure.coordination_proofs_per_pair": ratio(proofs, summary["coordination_pairs"]),
        "intervals.self_ms": 1000 * layer_sum(self_s, "intervals"),
        "intervals.calls": layer_calls("intervals"),
        "intervals.out_of_range_ratio": ratio(out_of_range, distances),
        "spacetime.self_ms": 1000 * layer_sum(self_s, "spacetime"),
        "spacetime.calls": layer_calls("spacetime"),
        "spacetime.inexact_ratio": ratio(summary["inexact"], summary["transforms"]),
        "generators.self_ms": 1000 * layer_sum(self_s, "generators"),
        "textio.parse_ms": 1000 * self_s.get("textio.parse_poset_text", 0.0),
        "textio.format_ms": 1000 * total_s.get("textio.format_poset_text", 0.0),
    }

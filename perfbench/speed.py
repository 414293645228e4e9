"""Scaling of measured times to a fixed reference speed.

A shared virtual machine runs the same pure-Python loop at speeds that
differ by up to half within seconds and drift by a fifth over minutes,
more than any bound a regression check could use. So the benchmark times
a fixed reference loop, part of the benchmark and not of the program,
right after every operation, and scales each operation's wall time by
``REFERENCE_S`` over the loop's time measured next to it:

    scaled = wall * REFERENCE_S / local reference time

A scaled millisecond is a millisecond on a machine where the reference
loop takes exactly ``REFERENCE_S``. A change to the program moves scaled
times as it moves wall times; a change in the machine's speed moves both
the operation and the loop and cancels out. The readable lines of a run
print the wall times and the reference times too.
"""
from __future__ import annotations

import bisect
import statistics
import time

REFERENCE_S = 0.001
WINDOW_S = 0.25
# About 1 ms on a 2-vCPU x86-64 VM under CPython 3.11.
_ITERATIONS = 3000
_WIDE = (1 << 4096) - 12345


def reference_loop() -> int:
    """Interpreter dispatch, dict and small-int work, and 4096-bit shifts:
    the mix the program's bitset poset and chain code runs on."""
    table = {}
    acc = 0
    for i in range(_ITERATIONS):
        key = i & 63
        acc = (acc + table.get(key, i)) & 0xFFFF
        table[key] = acc
        acc ^= (_WIDE >> (i & 1023)).bit_length()
    return acc


def reference() -> tuple[float, float]:
    """When the reference loop ran and its wall time: the faster of two runs.

    The first run after an operation can find the caches cold; the second
    finds them warm whatever the operation did, so the program's memory
    use does not leak into the reference.
    """
    stamp = time.perf_counter()
    times = []
    for _ in range(2):
        start = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - start)
    return stamp, min(times)


def scale(walls: list[float], references: list[tuple[float, float]]) -> list[float]:
    """Scaled times of ``walls``.

    ``references[k]`` is the reference (see :func:`reference`) taken just
    before operation ``k`` and ``references[k + 1]`` the one just after,
    so there is one more reference than operations. The local reference
    time of operation ``k`` is the median of the references taken from
    ``WINDOW_S`` before it to ``WINDOW_S`` after it, which always include
    those two. The machine's speed changes within a second, so a narrow
    window follows it best: on recorded runs, windows of 0.25 s left less
    spread between 25 s stretches than windows of 1 s or more.
    """
    if len(references) != len(walls) + 1:
        raise ValueError("need one reference before each operation and one after the last")
    stamps = [stamp for stamp, _ in references]
    scaled = []
    for k, wall in enumerate(walls):
        low = bisect.bisect_left(stamps, stamps[k] - WINDOW_S)
        high = bisect.bisect_right(stamps, stamps[k + 1] + WINDOW_S)
        local = statistics.median(seconds for _, seconds in references[low:high])
        scaled.append(wall * REFERENCE_S / local)
    return scaled

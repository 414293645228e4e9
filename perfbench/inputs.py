"""Seeded input generators for the benchmark, stdlib only.

Nothing here imports ``eventposet``: the program under test receives only
the event counts and relation lists made here, so its inputs do not depend
on any sequence the program itself draws (``generate_random`` in
particular).
"""
from __future__ import annotations

import math
import random


def geometric_dag(rng: random.Random, n: int, density: float) -> list[tuple[int, int]]:
    """Random DAG with each order-respecting pair related w.p. ``density``.

    A seeded permutation fixes a topological order. Gaps between kept pairs
    of a row are geometric, so the cost is O(n + edges) instead of the
    O(n^2) coin flips of a per-pair loop.
    """
    order = list(range(n))
    rng.shuffle(order)
    log_keep = math.log1p(-density)
    relations = []
    for i in range(n):
        j = i
        while True:
            j += 1 + int(math.log(1.0 - rng.random()) / log_keep)
            if j >= n:
                break
            relations.append((order[i], order[j]))
    return relations


def sprinkling(rng: random.Random, n: int) -> tuple[list[tuple[float, float]], list[tuple[int, int]]]:
    """Poisson sprinkling of ``n`` points into a 1+1 causal diamond.

    Points are uniform in light-cone coordinates (u, v) on the unit square;
    x precedes y iff both coordinates increase (Bombelli, Lee, Meyer &
    Sorkin, PRL 59, 1987). Event labels are a seeded permutation, and the
    relation list holds every comparable pair, so it is highly redundant.
    Returns the coordinates by event id and the relations.
    """
    points = sorted((rng.random(), rng.random()) for _ in range(n))
    labels = list(range(n))
    rng.shuffle(labels)
    coords = [(0.0, 0.0)] * n
    for label, point in zip(labels, points):
        coords[label] = point
    relations = []
    for i, (ui, vi) in enumerate(points):
        li = labels[i]
        for j in range(i + 1, n):
            if points[j][1] > vi:
                relations.append((li, labels[j]))
    return coords, relations

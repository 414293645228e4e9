"""Answers the benchmark checks results against, computed without ``eventposet``.

* Lattice closed forms. Event ``u * V + v`` of a U x V light-cone window
  sits at ``(u, v)`` under the product order. A straight chain stepping
  ``(du, dv)`` from ``(u0, v0)`` has the tick of its least element above
  ``(u, v)`` at the max of the shifted coordinates over the steps, rounded
  up, and the tick of its greatest element below at the min, rounded down.
  Tables built from the closed forms are cross-checked against a linear
  scan in the coordinate order when built.
* Collinearity from those tables, by the paper's five identity blocks.
* Reachability for the DAG inputs: a bitset closure over the input
  relations in topological order, and a breadth-first search for sampled
  events, each checking the other.
"""
from __future__ import annotations

import math
from collections import deque
from fractions import Fraction

# The chain set of ``standard_lattice``: (name, du, dv, u0, v0). A chain is
# kept only when its first two elements fit the window.
STANDARD_CHAINS = (
    ("P", 1, 1, 0, 0),
    ("Q", 1, 1, 4, 0),
    ("R", 1, 1, 8, 0),
    ("T", 1, 1, 4, 2),
    ("S", 4, 1, 0, 0),
)


def exact_sqrt(value: Fraction) -> Fraction | None:
    if value < 0:
        return None
    num, den = math.isqrt(value.numerator), math.isqrt(value.denominator)
    if num * num == value.numerator and den * den == value.denominator:
        return Fraction(num, den)
    return None


class LatticeChain:
    def __init__(self, name, du, dv, u0, v0, u_max, v_max):
        self.name, self.du, self.dv, self.u0, self.v0 = name, du, dv, u0, v0
        ticks = 0
        while u0 + ticks * du < u_max and v0 + ticks * dv < v_max:
            ticks += 1
        self.length = ticks
        self.elements = tuple((u0 + t * du) * v_max + v0 + t * dv for t in range(ticks))

    def forward_tick(self, u: int, v: int) -> int | None:
        tick = 0
        for coord, start, step in ((u, self.u0, self.du), (v, self.v0, self.dv)):
            if step:
                tick = max(tick, -((start - coord) // step))
            elif coord > start:
                return None
        return tick if tick < self.length else None

    def backward_tick(self, u: int, v: int) -> int | None:
        tick = self.length - 1
        for coord, start, step in ((u, self.u0, self.du), (v, self.v0, self.dv)):
            if step:
                tick = min(tick, (coord - start) // step)
            elif coord < start:
                return None
        return tick if tick >= 0 else None


class LatticeOracle:
    """Closed-form projections and collinearity on ``standard_lattice``."""

    def __init__(self, u_max: int, v_max: int):
        self.u_max, self.v_max = u_max, v_max
        self.size = u_max * v_max
        self.chains = {}
        for name, du, dv, u0, v0 in STANDARD_CHAINS:
            if u0 + du < u_max and v0 + dv < v_max:
                self.chains[name] = LatticeChain(name, du, dv, u0, v0, u_max, v_max)
        # name -> (forward tick per event, backward tick per event)
        self.ticks = {name: self._table(chain) for name, chain in self.chains.items()}

    def coords(self, event: int) -> tuple[int, int]:
        return divmod(event, self.v_max)

    def _table(self, chain: LatticeChain):
        forward, backward = [], []
        points = [self.coords(e) for e in chain.elements]
        for event in range(self.size):
            u, v = self.coords(event)
            f, b = chain.forward_tick(u, v), chain.backward_tick(u, v)
            scan_f = next((t for t, (cu, cv) in enumerate(points) if u <= cu and v <= cv), None)
            scan_b = next(
                (t for t in range(len(points) - 1, -1, -1)
                 if points[t][0] <= u and points[t][1] <= v),
                None,
            )
            if (f, b) != (scan_f, scan_b):
                raise AssertionError(f"closed form and scan disagree at {event} on {chain.name}")
            forward.append(f)
            backward.append(b)
        return forward, backward

    def forward(self, name: str, event: int) -> int | None:
        """Event id of the forward projection, or None."""
        tick = self.ticks[name][0][event]
        return None if tick is None else self.chains[name].elements[tick]

    def backward(self, name: str, event: int) -> int | None:
        tick = self.ticks[name][1][event]
        return None if tick is None else self.chains[name].elements[tick]

    def collinearity(self, event: int, p: str, q: str) -> str | None:
        """Case name "I".."V" or "not-collinear"; None if a projection is missing."""
        px, pbx = self.forward(p, event), self.backward(p, event)
        qx, qbx = self.forward(q, event), self.backward(q, event)
        if None in (px, pbx, qx, qbx):
            return None

        def fp(x):
            return None if x is None else self.forward(p, x)

        def bp(x):
            return None if x is None else self.backward(p, x)

        def fq(x):
            return None if x is None else self.forward(q, x)

        def bq(x):
            return None if x is None else self.backward(q, x)

        blocks = (
            ("I", (px == bp(qx), qx == fq(px), pbx == fp(qbx), qbx == bq(pbx))),
            ("II", (px == fp(qbx), qx == fq(pbx), pbx == bp(qx), qbx == bq(px))),
            ("III", (px == fp(qx), qx == bq(px), pbx == bp(qbx), qbx == fq(pbx))),
            ("IV", (px == fp(qx), qx == bq(px), pbx == fp(qbx), qbx == bq(pbx))),
            ("V", (px == bp(qx), qx == fq(px), pbx == bp(qbx), qbx == fq(pbx))),
        )
        for case, identities in blocks:
            if all(identities):
                return case
        return "not-collinear"

    def side(self, case: str | None) -> str:
        return {"I": "x|P|Q", "II": "P|x|Q", "III": "P|Q|x"}.get(case, "none")

    def chain_distance(self, p: str, q: str, p_tick: int, q_tick: int) -> Fraction | None:
        """((p - Pq) - (Qp - q)) / 2 in ticks; None when not mutually projecting."""
        p_image = self.ticks[p][0][self.chains[q].elements[q_tick]]
        q_image = self.ticks[q][0][self.chains[p].elements[p_tick]]
        if p_image is None or q_image is None:
            return None
        return Fraction((p_tick - p_image) - (q_image - q_tick), 2)

    def separation(self, p: str, q: str) -> Fraction:
        for p_tick in range(self.chains[p].length):
            for q_tick in range(self.chains[q].length):
                distance = self.chain_distance(p, q, p_tick, q_tick)
                if distance is not None:
                    return distance
        raise AssertionError(f"chains {p}, {q} never mutually project")

    def element_distance(self, name: str, event: int) -> Fraction:
        forward, backward = self.ticks[name][0][event], self.ticks[name][1][event]
        return Fraction(backward - forward, 2)

    def subspace_projection(self, x: int, y: int, p: str, q: str) -> Fraction:
        d_pq = self.separation(p, q)
        d_xp, d_xq = self.element_distance(p, x), self.element_distance(q, x)
        d_yp, d_yq = self.element_distance(p, y), self.element_distance(q, y)
        return ((d_yp ** 2 - d_yq ** 2) - (d_xp ** 2 - d_xq ** 2)) / (2 * abs(d_pq))


def transform_pair(first: Fraction, second: Fraction, m: Fraction, n: Fraction):
    """(first * sqrt(m/n), second * sqrt(n/m)), exact when the root is rational."""
    root = exact_sqrt(m / n)
    if root is not None:
        return first * root, second / root
    factor = math.sqrt(m / n)
    return float(first) * factor, float(second) / factor


def same_number(got, want) -> bool:
    """Exact equality for rationals, 1e-12 closeness once floats are involved."""
    if isinstance(got, float) or isinstance(want, float):
        return math.isclose(float(got), float(want), rel_tol=1e-12, abs_tol=1e-12)
    return got == want


class DagOracle:
    """Reachability of a relation list, without ``eventposet``."""

    def __init__(self, n: int, relations: list[tuple[int, int]]):
        self.n = n
        succ = [set() for _ in range(n)]
        indegree = [0] * n
        for a, b in relations:
            if b not in succ[a]:
                succ[a].add(b)
                indegree[b] += 1
        self.succ = [sorted(s) for s in succ]
        self.minimal = [d == 0 for d in indegree]
        remaining = list(indegree)
        ready = [v for v in range(n) if remaining[v] == 0]
        order = []
        while ready:
            v = ready.pop()
            order.append(v)
            for w in self.succ[v]:
                remaining[w] -= 1
                if remaining[w] == 0:
                    ready.append(w)
        if len(order) != n:
            raise AssertionError("input relations have a cycle")
        above = [0] * n
        for v in reversed(order):
            bits = 1 << v
            for w in self.succ[v]:
                bits |= above[w]
            above[v] = bits
        self.above = above

    def bfs(self, start: int) -> int:
        """Bitmask of events reachable from ``start``, itself included."""
        seen = 1 << start
        queue = deque([start])
        while queue:
            for w in self.succ[queue.popleft()]:
                if not seen >> w & 1:
                    seen |= 1 << w
                    queue.append(w)
        return seen

    def is_cover(self, a: int, b: int) -> bool:
        return b in self.succ[a] and not any(
            w != b and self.above[w] >> b & 1 for w in self.succ[a]
        )

    def maximal_walk(self, walk) -> bool:
        """A walk along cover edges from a minimal to a maximal event."""
        return (
            self.minimal[walk[0]]
            and not self.succ[walk[-1]]
            and all(self.is_cover(a, b) for a, b in zip(walk, walk[1:]))
        )

    def forward_scan(self, event: int, walk) -> int | None:
        above = self.above[event]
        return next((e for e in walk if above >> e & 1), None)

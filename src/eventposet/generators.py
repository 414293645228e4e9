"""Poset generators used by the test harness, the verifier, and the CLI.

The light-cone lattice is the canonical 1+1 generator: events are integer
pairs ``(u, v)`` inside a window, ordered by the product order
``(u, v) <= (u', v') iff u <= u' and v <= v'``. Projections onto straight
chains have closed forms (max/min of shifted coordinates), which gives an
independent oracle against the graph-search implementation. Chains that
step ``(1, 1)`` per tick ("rest" chains) are pairwise coordinated; a chain
stepping ``(m, n)`` per tick with ``m >= n`` is linearly related to rest
chains with exactly that ``(m, n)``. With ``m < n`` it reads ``(n, m)``:
forward projection onto a rest chain takes the larger shifted coordinate
and backward projection the smaller, so a ``(1, 2)`` chain relates as
``(2, 1)``.
"""
from __future__ import annotations

import math
import numbers
import random
from collections.abc import Iterable

from .chains import ValuedChain, _check_type, _Record, _set, make_valued_chain
from .errors import ChainEscapesWindowError, EmptyWindowError, InvalidArgumentError
from .poset import EventId, Poset, _check_event_count, _is_index, build_poset


class LatticeChainSpec(_Record):
    """Straight chain stepping ``(du, dv)`` per tick from ``(u0, v0)``."""

    __slots__ = _fields = ("name", "du", "dv", "u0", "v0")

    def __init__(self, name: str, du: int, dv: int, u0: int = 0, v0: int = 0):
        if not isinstance(name, str):
            raise InvalidArgumentError(f"chain name {name!r} is not a str")
        steps = (du, dv)
        if not all(_is_index(step, math.inf) for step in steps) or steps == (0, 0):
            raise InvalidArgumentError(
                f"chain {name!r} must step forward by ints >= 0, in at least "
                f"one coordinate, got ({du!r}, {dv!r})"
            )
        _set(self, "name", name)
        _set(self, "du", du)
        _set(self, "dv", dv)
        _set(self, "u0", u0)
        _set(self, "v0", v0)


class LatticeSpec(_Record):
    """A ``u_max`` x ``v_max`` window and the chains to lay in it.

    Checked when built: the chains must be LatticeChainSpecs with distinct
    names, and the sizes ints with at least one event (EmptyWindowError)
    and at most :data:`~eventposet.poset.MAX_EVENTS` of them
    (InvalidArgumentError otherwise). Where each chain starts is checked
    by :func:`generate_lattice`.
    """

    __slots__ = _fields = ("u_max", "v_max", "chains")

    def __init__(self, u_max: int, v_max: int, chains: Iterable[LatticeChainSpec] = ()):
        if isinstance(chains, Iterable):
            chains = tuple(chains)
        if not (isinstance(chains, tuple) and all(isinstance(c, LatticeChainSpec) for c in chains)):
            raise InvalidArgumentError(f"chains {chains!r} are not LatticeChainSpecs")
        names = [c.name for c in chains]
        for name in names:
            if names.count(name) > 1:
                raise InvalidArgumentError(f"duplicate chain name {name!r}")
        if not (_is_index(u_max, math.inf) and _is_index(v_max, math.inf)):
            raise InvalidArgumentError(f"window sizes {u_max!r}x{v_max!r} are not ints >= 0")
        if u_max < 1 or v_max < 1:
            raise EmptyWindowError(f"window {u_max}x{v_max} has no events")
        _check_event_count(u_max * v_max)
        _set(self, "u_max", u_max)
        _set(self, "v_max", v_max)
        _set(self, "chains", chains)


class Lattice(_Record):
    """A generated window poset plus its named chains and coordinate maps.

    Equality and hashing read ``spec`` and ``poset``; ``chains`` follows
    from them and is only shown.
    """

    __slots__ = _fields = ("spec", "poset", "chains")
    _compared = ("spec", "poset")

    def __init__(self, spec: LatticeSpec, poset: Poset, chains: dict[str, ValuedChain]):
        _set(self, "spec", spec)
        _set(self, "poset", poset)
        _set(self, "chains", chains)

    def event(self, u: int, v: int) -> EventId:
        if not (_is_index(u, self.spec.u_max) and _is_index(v, self.spec.v_max)):
            window = f"{self.spec.u_max}x{self.spec.v_max}"
            raise InvalidArgumentError(f"({u!r}, {v!r}) is not an int point of the {window} window")
        return u * self.spec.v_max + v

    def coords(self, event: EventId) -> tuple[int, int]:
        self.poset.check_id(event)
        return divmod(event, self.spec.v_max)


def generate_lattice(spec: LatticeSpec) -> Lattice:
    """Product-order window poset with one valued chain per chain spec.

    The spec's window was checked when the spec was built; here each
    chain must start inside it (ChainEscapesWindowError otherwise). Chain
    elements are emitted tick by tick until the window edge; the valuation
    is the tick index, one unit per tick.
    """
    _check_type(spec, LatticeSpec, "the lattice spec")
    relations = []
    for u in range(spec.u_max):
        for v in range(spec.v_max):
            event = u * spec.v_max + v
            if u + 1 < spec.u_max:
                relations.append((event, event + spec.v_max))
            if v + 1 < spec.v_max:
                relations.append((event, event + 1))
    poset = build_poset(spec.u_max * spec.v_max, relations)

    chains: dict[str, ValuedChain] = {}
    for chain_spec in spec.chains:
        if not (_is_index(chain_spec.u0, spec.u_max) and _is_index(chain_spec.v0, spec.v_max)):
            raise ChainEscapesWindowError(
                f"chain {chain_spec.name!r} starts at ({chain_spec.u0}, "
                f"{chain_spec.v0}), outside the window"
            )
        elements = []
        values = []
        tick = 0
        while True:
            u = chain_spec.u0 + tick * chain_spec.du
            v = chain_spec.v0 + tick * chain_spec.dv
            if u >= spec.u_max or v >= spec.v_max:
                break
            elements.append(u * spec.v_max + v)
            values.append(tick)
            tick += 1
        chains[chain_spec.name] = make_valued_chain(
            poset, elements, values, chain_spec.name
        )
    return Lattice(spec, poset, chains)


def standard_lattice(u_max: int = 12, v_max: int = 12) -> Lattice:
    """Window with the default demo chain set.

    Rest chains P, Q, R sit at increasing u-offsets, T is a rest chain
    shifted into the interior between P and Q, and S is a (4, 1) boosted
    chain. Chains that do not fit the window (fewer than two elements)
    are dropped.
    """
    candidates = [
        LatticeChainSpec("P", 1, 1, 0, 0),
        LatticeChainSpec("Q", 1, 1, 4, 0),
        LatticeChainSpec("R", 1, 1, 8, 0),
        LatticeChainSpec("T", 1, 1, 4, 2),
        LatticeChainSpec("S", 4, 1, 0, 0),
    ]
    LatticeSpec(u_max, v_max)  # checks the sizes before the fit test compares them
    # Steps are >= 0, so a chain whose second tick is inside the window
    # starts inside it too.
    kept = [c for c in candidates if c.u0 + c.du < u_max and c.v0 + c.dv < v_max]
    return generate_lattice(LatticeSpec(u_max, v_max, kept))


def generate_simplex(n_chains: int) -> tuple[Poset, dict[str, ValuedChain]]:
    """N two-event chains x_i < y_i with every y including every x.

    By symmetry all pairwise chain distances are equal in magnitude, which
    is only realizable in N-1 spatial dimensions. Valuations are 0 at the
    bottom and 1 at the top of each chain.
    """
    if not _is_index(n_chains, math.inf) or n_chains < 1:
        raise InvalidArgumentError(
            f"a simplex needs an int count of at least one chain, got {n_chains!r}"
        )
    _check_event_count(2 * n_chains)
    relations = [(j, n_chains + i) for i in range(n_chains) for j in range(n_chains)]
    poset = build_poset(2 * n_chains, relations)
    chains = {
        f"C{i + 1}": make_valued_chain(poset, (i, n_chains + i), (0, 1), f"C{i + 1}")
        for i in range(n_chains)
    }
    return poset, chains


def _seeded_rng(seed) -> random.Random:
    """``random.Random(seed)``, refusing with InvalidArgumentError a seed of
    a type it does not take (anything but None, int, float, str and bytes)."""
    try:
        return random.Random(seed)
    except TypeError:
        raise InvalidArgumentError(
            f"seed {seed!r} is not None, an int, a float, a str or bytes"
        ) from None


def generate_random(seed: int, n_events: int, edge_density: float) -> Poset:
    """Random DAG, deterministic per seed.

    A random permutation fixes a topological order; each order-respecting
    pair becomes a relation with probability ``edge_density``. Density 0
    yields an antichain, density 1 a total order.

    The pairs ``i < j`` of the permutation are walked in row-major order
    by geometric skips (Batagelj & Brandes, "Efficient generation of large
    random networks", PRE 71, 036113, 2005): one ``random()`` draw gives
    the gap to the next related pair, so the cost is linear in the events
    and relations, not in the pairs. This replaced one draw per pair, so
    the poset drawn for a given seed differs from the one that per-pair
    generator drew.
    """
    if not (isinstance(edge_density, numbers.Real) and 0 <= edge_density <= 1):
        raise InvalidArgumentError(f"edge_density {edge_density!r} is not a real number in [0, 1]")
    _check_event_count(n_events)
    rng = _seeded_rng(seed)
    order = list(range(n_events))
    rng.shuffle(order)
    relations = []
    if edge_density >= 1.0:
        relations = list(zip(order, order[1:]))
    elif edge_density > 0.0:
        log_miss = math.log1p(-edge_density)
        left = n_events * (n_events - 1) // 2  # pairs after the current one
        i = j = 0  # the current pair (i, j); (0, 0) sits just before (0, 1)
        while True:
            gap = math.log(1.0 - rng.random()) / log_miss
            # Compared as a float: a tiny density makes the gap inf.
            if gap >= left:
                break
            skip = int(gap) + 1
            left -= skip
            j += skip
            while j >= n_events:  # past row i: carry on in row i + 1
                i += 1
                j += i + 1 - n_events
            relations.append((order[i], order[j]))
    return build_poset(n_events, relations)


def maximal_chains(poset: Poset, seed: int, count: int) -> list[tuple[EventId, ...]]:
    """Sample ``count`` maximal chains by random walks along cover edges."""
    _check_type(poset, Poset, "the poset to walk")
    if not _is_index(count, math.inf):
        raise InvalidArgumentError(f"count {count!r} is not an int >= 0")
    rng = _seeded_rng(seed)
    successors: dict[int, list[int]] = {}
    predecessors: dict[int, list[int]] = {}
    for a, b in poset.cover_edges():
        successors.setdefault(a, []).append(b)
        predecessors.setdefault(b, []).append(a)
    minimal = [v for v in poset.events() if v not in predecessors]
    chains = []
    for _ in range(count):
        if not minimal:
            break
        node = rng.choice(minimal)
        walk = [node]
        while node in successors:
            node = rng.choice(successors[node])
            walk.append(node)
        chains.append(tuple(walk))
    return chains

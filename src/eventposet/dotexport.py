"""DOT (graphviz) export in two views.

Hasse mode draws every event with its cover edges pointing up, colors
chain members, and adds dashed forward-projection edges between chains.
Geometric mode draws one node per chain, placed left to right by the
order the chains induce on one another; the along-chain direction is
suppressed entirely. Output is plain DOT text; rendering is left to
external tools.
"""
from __future__ import annotations

from typing import Mapping

from .chains import ValuedChain, _check_type, _checked_chains
from .errors import EventPosetError, InvalidArgumentError
from .poset import Poset
from .projection import forward_project
from .spacetime import chain_separation

_PALETTE = (
    "lightblue", "lightsalmon", "palegreen", "plum", "khaki",
    "lightpink", "lightcyan", "wheat",
)


def export_dot(
    poset: Poset,
    chains: Mapping[str, ValuedChain] | None = None,
    mode: str = "hasse",
) -> str:
    """The DOT text of ``poset`` in ``mode``."""
    _check_type(poset, Poset, "the poset to export")
    chains = _checked_chains(chains, poset)
    if mode == "hasse":
        return _hasse(poset, chains)
    if mode == "geometric":
        return _geometric(chains)
    raise InvalidArgumentError(f"unknown export mode {mode!r}")


def _hasse(poset: Poset, chains: Mapping[str, ValuedChain]) -> str:
    member_of: dict[int, str] = {}
    style_of: dict[str, str] = {}
    for i, name in enumerate(sorted(chains)):
        style_of[name] = f"fillcolor={_PALETTE[i % len(_PALETTE)]}, group={_quoted(name)}"
        for event in chains[name].elements:
            member_of.setdefault(event, name)

    lines = ["digraph poset {", "  rankdir=BT;"]
    for event in poset.events():
        if event in member_of:
            name = member_of[event]
            lines.append(f'  "{event}" [label="{event}", style=filled, {style_of[name]}];')
        else:
            lines.append(f'  "{event}" [label="{event}"];')
    for a, b in poset.cover_edges():
        lines.append(f'  "{a}" -> "{b}";')

    # Dashed cross-chain edges: each chain element to its forward
    # projection on every other chain, where defined.
    names = sorted(chains)
    for src_name in names:
        for dst_name in names:
            if src_name == dst_name:
                continue
            dst = chains[dst_name]
            for event in chains[src_name].elements:
                image = forward_project(event, dst.chain)
                if image is not None and image != event:
                    lines.append(
                        f'  "{event}" -> "{image}" [style=dashed, constraint=false];'
                    )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _geometric(chains: Mapping[str, ValuedChain]) -> str:
    """One node per chain, ranked along the induced spatial order.

    Only chains with a defined separation to every other placed chain can
    be positioned; the rest (boosted chains, chains without full mutual
    projections) are listed as skipped in a comment.
    """
    if not chains:
        raise InvalidArgumentError("geometric view needs at least one chain")
    placed: list[str] = []
    skipped: list[str] = []
    separations: dict[tuple[str, str], float] = {}
    for name in sorted(chains):
        pairwise = {}
        try:
            for other in placed:
                d = abs(chain_separation(chains[name], chains[other]))
                pairwise[(name, other)] = pairwise[(other, name)] = d
        except EventPosetError:
            skipped.append(name)
            continue
        placed.append(name)
        separations.update(pairwise)

    if len(placed) == 1:
        ranks = {placed[0]: 0}
    else:
        # Anchor at one end of the line: the farthest-apart pair marks the
        # extremes, its alphabetically first chain fixes the direction.
        extreme = max(separations.values())
        anchor, _ = min(p for p, d in separations.items() if d == extreme)
        ordered = sorted(placed, key=lambda n: (separations.get((anchor, n), 0), n))
        ranks = {name: i for i, name in enumerate(ordered)}

    lines = ["graph chains {", "  layout=neato;"]
    if skipped:
        names = ", ".join(map(_quoted, skipped))
        lines.append(f"  // not placed (no defined separation): {names}")
    for name in placed:
        lines.append(
            f'  {_quoted(name)} [shape=circle, style=filled, fillcolor=gray25, '
            f'fontcolor=white, pos="{ranks[name]},0!"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _quoted(name: str) -> str:
    """Chain ``name`` as a DOT quoted string, each ``"`` escaped. A name
    ending in a backslash, which would escape the closing quote, or holding
    a line break, which would end a ``//`` comment, raises InvalidArgumentError.
    """
    if name.endswith("\\") or "".join(name.splitlines()) != name:
        raise InvalidArgumentError(f"chain name {name!r} cannot be written as a DOT string")
    return '"' + name.replace('"', '\\"') + '"'

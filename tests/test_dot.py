import pytest

from eventposet import (
    InvalidArgumentError,
    LatticeChainSpec,
    LatticeSpec,
    build_poset,
    export_dot,
    generate_lattice,
    make_valued_chain,
    standard_lattice,
)

TWO_EVENT_HASSE = """\
digraph poset {
  rankdir=BT;
  "0" [label="0"];
  "1" [label="1"];
  "0" -> "1";
}
"""


def test_two_event_hasse_golden():
    poset = build_poset(2, [(0, 1)])
    assert export_dot(poset) == TWO_EVENT_HASSE


def test_hasse_with_coordinated_pair():
    spec = LatticeSpec(
        6,
        6,
        (
            LatticeChainSpec("P", 1, 1, 0, 0),
            LatticeChainSpec("Q", 1, 1, 2, 0),
        ),
    )
    lattice = generate_lattice(spec)
    text = export_dot(lattice.poset, lattice.chains, mode="hasse")
    # chain members are colored, two distinct colors
    assert 'group="P"' in text and 'group="Q"' in text
    assert text.count("fillcolor=lightblue") == len(lattice.chains["P"])
    assert text.count("fillcolor=lightsalmon") == len(lattice.chains["Q"])
    # projection cross-edges are dashed and do not affect layout
    assert "[style=dashed, constraint=false];" in text
    # every cover edge appears
    for a, b in lattice.poset.cover_edges():
        assert f'"{a}" -> "{b}";' in text


def test_geometric_view_orders_chains():
    spec = LatticeSpec(
        20,
        12,
        (
            LatticeChainSpec("A", 1, 1, 0, 0),
            LatticeChainSpec("B", 1, 1, 4, 0),
            LatticeChainSpec("C", 1, 1, 8, 0),
        ),
    )
    lattice = generate_lattice(spec)
    text = export_dot(lattice.poset, lattice.chains, mode="geometric")
    assert '"A" [shape=circle' in text
    assert 'pos="0,0!"' in text.split('"A"')[1].split("];")[0]
    assert 'pos="1,0!"' in text.split('"B"')[1].split("];")[0]
    assert 'pos="2,0!"' in text.split('"C"')[1].split("];")[0]


def test_geometric_single_chain():
    poset = build_poset(2, [(0, 1)])
    chains = {"P": make_valued_chain(poset, (0, 1), (0, 1), "P")}
    text = export_dot(poset, chains, mode="geometric")
    assert '"P"' in text


def test_geometric_requires_chains():
    poset = build_poset(2, [(0, 1)])
    with pytest.raises(ValueError):
        export_dot(poset, {}, mode="geometric")


def test_unknown_mode_rejected():
    poset = build_poset(2, [(0, 1)])
    with pytest.raises(ValueError):
        export_dot(poset, mode="sideways")


@pytest.mark.parametrize("mode", ["hasse", "geometric"])
def test_chain_names_are_written_as_dot_strings(mode):
    # The geometric view does not place the boosted chain S, so its name is
    # written only in the comment that lists the chains left out.
    lattice = standard_lattice(8, 8)

    def renamed(name):
        chains = dict(lattice.chains)
        chains[name] = chains.pop("S")
        return chains

    assert '"S\\"x"' in export_dot(lattice.poset, renamed('S"x'), mode)
    for name in ("S\\", "S\nx"):
        with pytest.raises(InvalidArgumentError, match="cannot be written as a DOT string"):
            export_dot(lattice.poset, renamed(name), mode)

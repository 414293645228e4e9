"""The refusal contract: every error the library raises is an EventPosetError.

Each ``raise`` in ``src/eventposet`` is read from the source with ``ast``.
The raised class, or the return annotation of a function that builds the
exception, must subclass ``EventPosetError``. A bare re-raise passes on
what it caught. The CLI's argv signals are the only other raises: they end
in exit code 2 or the process's exit status, never in a caller's hands.
"""
import ast
import importlib
import typing
from pathlib import Path

import pytest

import eventposet
from eventposet import EventPosetError, InvalidArgumentError, InvalidIdError

SOURCES = sorted(Path(eventposet.__file__).parent.glob("*.py"))

CLI_SIGNALS = {
    ("cli", "_UsageError"),  # exit 2 with the subcommand's usage line
    ("cli", "argparse.ArgumentTypeError"),  # argparse's exit 2 for a bad value
    ("cli", "SystemExit"),  # entry(): the exit status of main()
}


def _raised_class(module, target: ast.expr):
    """The exception class that ``raise <target>`` or ``raise <target>(...)``
    raises, read from ``module``'s names."""
    obj = eval(compile(ast.Expression(target), "<raise>", "eval"), vars(module))
    if isinstance(obj, type):
        return obj
    return typing.get_type_hints(obj)["return"]


def _offenders(stem: str, tree: ast.AST) -> list[str]:
    """The raises in ``tree``, the source of ``eventposet.<stem>``, that
    break the contract. The module is imported only to resolve a raise, so
    ``__main__``, which raises nothing, is never run."""
    bad = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if (stem, ast.unparse(target)) in CLI_SIGNALS:
            continue
        module = importlib.import_module(f"eventposet.{stem}")
        if not issubclass(_raised_class(module, target), EventPosetError):
            bad.append(f"{stem}.py:{node.lineno}: raise {ast.unparse(node.exc)}")
    return bad


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_raise_is_an_event_poset_error(path):
    assert _offenders(path.stem, ast.parse(path.read_text())) == []


def test_the_contract_check_sees_a_bare_value_error():
    tree = ast.parse(
        "def f(n):\n"
        "    if n < 0:\n"
        "        raise ValueError('negative')\n"
        "    raise InvalidArgumentError('too big')\n"
    )
    assert _offenders("poset", tree) == ["poset.py:3: raise ValueError('negative')"]


def test_the_contract_check_reads_exception_factories():
    # intervals raises the FloatRangeError that _out_of_range builds.
    module = importlib.import_module("eventposet.intervals")
    targets = [
        node.exc.func for node in ast.walk(ast.parse(Path(module.__file__).read_text()))
        if isinstance(node, ast.Raise) and "_out_of_range" in ast.unparse(node)
    ]
    assert targets
    assert all(_raised_class(module, t) is eventposet.FloatRangeError for t in targets)


def _one_chain_with_side(side):
    lattice = eventposet.standard_lattice(12, 12)
    interval = eventposet.GeneralizedInterval(lattice.event(5, 3), lattice.event(6, 5))
    return eventposet.interval_pair_one_chain(
        interval, lattice.chains["P"], eventposet.Betweenness.P_SIDE, side
    )


def _lattice_chains(*names):
    lattice = eventposet.standard_lattice(12, 12)
    return [lattice.chains[name] for name in names]


@pytest.mark.parametrize("call", [
    # The argument checks that raised a bare ValueError.
    pytest.param(lambda: eventposet.build_poset(-1, []), id="negative-count"),
    pytest.param(lambda: eventposet.build_poset(4097, []), id="count-over-cap"),
    pytest.param(lambda: eventposet.export_dot(eventposet.chain_poset(2), mode="x"),
                 id="export-mode"),
    pytest.param(lambda: eventposet.export_dot(eventposet.chain_poset(2), mode="geometric"),
                 id="geometric-export-without-chains"),
    pytest.param(lambda: eventposet.LatticeChainSpec("P", 0, 0), id="chain-spec"),
    pytest.param(lambda: eventposet.generate_simplex(0), id="simplex-spec"),
    pytest.param(lambda: eventposet.standard_lattice(4, 4).event(9, 0), id="lattice-event"),
    pytest.param(lambda: eventposet.generate_random(0, 5, 1.5), id="random-density"),
    # A side that is not a Betweenness member was read as the partner side.
    pytest.param(lambda: _one_chain_with_side(None), id="one-chain-side-none"),
    pytest.param(lambda: _one_chain_with_side("P|x|Q"), id="one-chain-side-value"),
    # Window sizes that are not numbers, compared before any check.
    pytest.param(lambda: eventposet.standard_lattice("a", 3), id="standard-lattice-str-u"),
    pytest.param(lambda: eventposet.standard_lattice(None, 3), id="standard-lattice-none-u"),
    pytest.param(lambda: eventposet.standard_lattice(3, "a"), id="standard-lattice-str-v"),
    # Each raised a TypeError or AttributeError.
    pytest.param(lambda: eventposet.chain_poset("a"), id="chain-poset-str"),
    pytest.param(lambda: eventposet.chain_poset(2.0), id="chain-poset-float"),
    pytest.param(lambda: eventposet.chain_poset(4097), id="chain-poset-over-cap"),
    pytest.param(lambda: eventposet.exact_sqrt(None), id="exact-sqrt-none"),
    pytest.param(lambda: eventposet.spherical_decompose(1.0, 1.0, "a", 0.2),
                 id="spherical-str-angle"),
    pytest.param(lambda: eventposet.spherical_decompose(1.0, 1.0, 0.1, None),
                 id="spherical-none-angle"),
    pytest.param(lambda: eventposet.Chain(eventposet.chain_poset(2), 5), id="chain-int-elements"),
    pytest.param(lambda: eventposet.make_valued_chain(eventposet.chain_poset(2), (0, 1), None),
                 id="valued-chain-none-values"),
    # Each constructor checks its object argument.
    pytest.param(lambda: eventposet.Chain(None, (0,)), id="chain-none-poset"),
    pytest.param(lambda: eventposet.ValuedChain(None, (1,)), id="valued-chain-none-chain"),
    pytest.param(lambda: eventposet.ClosedInterval(None, 0, 0), id="closed-interval-none-chain"),
    # Each raised an AttributeError on its object argument.
    *[pytest.param(lambda fn=fn, chain=chain: fn(0, chain()), id=f"{fn.__name__}-{label}")
      for fn in (eventposet.forward_project, eventposet.backward_project,
                 eventposet.classify_projection)
      for label, chain in (("none", lambda: None),
                           ("valued-chain", lambda: eventposet.standard_lattice(4, 4).chains["P"]))],
    *[pytest.param(lambda fn=fn: fn(None), id=f"{fn.__name__}-none")
      for fn in (eventposet.beta, eventposet.gamma, eventposet.lorentz_matrix,
                 eventposet.length_of_pair, eventposet.distance_of_pair, eventposet.decompose,
                 eventposet.to_coords, eventposet.minkowski_form,
                 eventposet.parse_poset_text, eventposet.export_dot)],
    pytest.param(lambda: eventposet.lorentz_apply(eventposet.SpacetimeCoords(1, 0), None),
                 id="lorentz_apply-none"),
    pytest.param(lambda: eventposet.compose_transforms(None, eventposet.PairTransform(4, 1)),
                 id="compose_transforms-none-first"),
    pytest.param(lambda: eventposet.compose_transforms(eventposet.PairTransform(4, 1), (4, 1)),
                 id="compose_transforms-tuple-second"),
    pytest.param(lambda: eventposet.to_coords(eventposet.SpacetimeCoords(1, 0)),
                 id="to_coords-coords"),
    pytest.param(lambda: eventposet.beta(eventposet.pair(4, 1)), id="beta-pair"),
    # A chain name that is not a str.
    pytest.param(lambda: eventposet.make_valued_chain(eventposet.chain_poset(3), (0, 1), (0, 1), None),
                 id="chain-none-name"),
    pytest.param(lambda: eventposet.make_valued_chain(eventposet.chain_poset(3), (0, 1), (0, 1), 5),
                 id="chain-int-name"),
    # Each raised an AttributeError on its object argument.
    pytest.param(lambda: eventposet.quantify_event(0, None), id="quantify_event-none"),
    pytest.param(lambda: eventposet.quantify_event(0, eventposet.standard_lattice(4, 4).chains["P"].chain),
                 id="quantify_event-chain"),
    *[pytest.param(lambda fn=fn: fn(None), id=f"{fn.__name__}-none")
      for fn in (eventposet.interval_scalar, eventposet.scalar_length,
                 eventposet.classify_interval, eventposet.from_coords,
                 eventposet.format_poset_text)],
    pytest.param(lambda: eventposet.lorentz_apply(None, eventposet.PairTransform(4, 1)),
                 id="lorentz_apply-none-coords"),
    pytest.param(lambda: eventposet.apply_pair_transform(None, eventposet.PairTransform(4, 1)),
                 id="apply_pair_transform-none-pair"),
    pytest.param(lambda: eventposet.apply_pair_transform(eventposet.pair(1, 1), None),
                 id="apply_pair_transform-none-transform"),
    *[pytest.param(lambda fn=fn: fn(0, *_lattice_chains("P", "Q")), id=f"{fn.__name__}-valued-chains")
      for fn in (eventposet.collinearity_case, eventposet.betweenness_of)],
    pytest.param(lambda: eventposet.detect_linear_relation(None, _lattice_chains("P")[0]),
                 id="detect_linear_relation-none"),
    pytest.param(lambda: eventposet.interval_pair_two_chains(None, *_lattice_chains("P", "Q")),
                 id="interval_pair_two_chains-none"),
])
def test_argument_checks_raise_invalid_argument_error(call):
    with pytest.raises(InvalidArgumentError):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: eventposet.classify_projection(0, eventposet.standard_lattice(4, 4).chains["P"]),
     "the chain to project onto must be a Chain, not ValuedChain"),
    (lambda: eventposet.gamma(None), "a pair transform must be a PairTransform, not NoneType"),
    (lambda: eventposet.compose_transforms(eventposet.PairTransform(4, 1), (4, 1)),
     "the second pair transform must be a PairTransform, not tuple"),
    (lambda: eventposet.minkowski_form((4, 1)), "an interval pair must be an IntervalPair, not tuple"),
    (lambda: eventposet.parse_poset_text(b"events 1"), "poset text must be a str, not bytes"),
    (lambda: eventposet.export_dot(None), "the poset to export must be a Poset, not NoneType"),
    (lambda: eventposet.Chain(eventposet.chain_poset(1), (0,), 5),
     "the name of a chain must be a str, not int"),
    (lambda: eventposet.quantify_event(0, _lattice_chains("P")[0].chain),
     "the valued chain to quantify on must be a ValuedChain, not Chain"),
    (lambda: eventposet.lorentz_apply((1, 0), eventposet.PairTransform(4, 1)),
     "spacetime coordinates must be a SpacetimeCoords, not tuple"),
    (lambda: eventposet.betweenness_of(0, *_lattice_chains("P", "Q")),
     "chain P of a chain pair must be a Chain, not ValuedChain"),
    (lambda: eventposet.collinearity_case(0, _lattice_chains("P")[0].chain, None),
     "chain Q of a chain pair must be a Chain, not NoneType"),
    (lambda: eventposet.detect_linear_relation(_lattice_chains("S")[0], None),
     "chain P of a linear relation must be a ValuedChain, not NoneType"),
    (lambda: eventposet.interval_pair_two_chains((49, 90), *_lattice_chains("P", "Q")),
     "the interval to quantify must be a GeneralizedInterval, not tuple"),
])
def test_object_argument_refusals_name_the_argument_and_its_type(call, message):
    with pytest.raises(InvalidArgumentError) as exc:
        call()
    assert str(exc.value) == message


def test_invalid_arguments_are_value_errors_and_event_poset_errors():
    assert issubclass(InvalidArgumentError, ValueError)
    assert issubclass(InvalidArgumentError, EventPosetError)
    for window_error in (eventposet.EmptyWindowError, eventposet.ChainEscapesWindowError):
        assert issubclass(window_error, InvalidArgumentError)
    assert not issubclass(InvalidIdError, ValueError)

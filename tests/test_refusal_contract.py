"""The refusal contract: every error the library raises is an EventPosetError.

Each ``raise`` in ``src/eventposet`` is read from the source with ``ast``.
The raised class, or the return annotation of a function that builds the
exception, must subclass ``EventPosetError``. A bare re-raise passes on
what it caught. The CLI's argv signals are the only other raises: they end
in exit code 2 or the process's exit status, never in a caller's hands.
"""
import ast
import collections.abc
import importlib
import inspect
import typing
from pathlib import Path

import pytest

import eventposet
from eventposet import DifferentChainsError, EventPosetError, InvalidArgumentError, InvalidIdError
from eventposet import verify

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
    # Each raised an AttributeError later, or was kept as it came.
    pytest.param(lambda: eventposet.IntervalPair(1, 1, None), id="interval-pair-none-basis"),
    pytest.param(lambda: eventposet.IntervalPair(1, 1, chains=5), id="interval-pair-int-chains"),
    pytest.param(lambda: eventposet.IntervalPair(1, 1, chains=(None,)),
                 id="interval-pair-none-chain"),
    # The geometric view drew a node for a chain that was not one.
    pytest.param(lambda: eventposet.export_dot(eventposet.chain_poset(2), {"a": None},
                                               mode="geometric"),
                 id="geometric-export-none-chain"),
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
    # A label names no chain: two posets' ("P", "Q") pairs used to join.
    (lambda: eventposet.IntervalPair(1, 1, chains=("P", "Q")),
     "interval pair chains must be ValuedChains, not ['str', 'str']"),
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


# The library's object types: every parameter hinted with one of them is
# refused, given something else, with InvalidArgumentError.
OBJECT_TYPES = (
    eventposet.Poset, eventposet.Chain, eventposet.ValuedChain, eventposet.ClosedInterval,
    eventposet.LatticeSpec, eventposet.GeneralizedInterval, eventposet.IntervalPair,
    eventposet.PairTransform, eventposet.SpacetimeCoords,
)


# The hint of a parameter that takes named chains; every such parameter
# refuses a mapping that is not one of str names to valued chains on the
# poset of the call.
CHAIN_MAPPING = typing.Optional[typing.Mapping[str, eventposet.ValuedChain]]


def _valid_arguments():
    """A valid value for each parameter of the functions in the namespace,
    by type, and by name where one type has several roles. On the 12x12
    lattice, the first five elements of T lie between P and Q, S is
    linearly related to P, and the events 49 and 90 lie between P and Q."""
    lattice = eventposet.standard_lattice(12, 12)
    p, q, s = (lattice.chains[name] for name in "PQS")
    t = lattice.chains["T"].chain.subchain(0, 4)
    pair = eventposet.pair
    return {
        eventposet.Poset: lattice.poset,
        eventposet.Chain: {"x_chain": t, "b_chain": t, "q_chain": q.chain,
                           "c_chain": q.chain, None: p.chain},
        eventposet.ValuedChain: {"q": q, "s": s, None: p},
        eventposet.ClosedInterval: {"second": eventposet.ClosedInterval(p, 1, 2),
                                    None: eventposet.ClosedInterval(p, 0, 1)},
        eventposet.LatticeSpec: eventposet.LatticeSpec(4, 4),
        eventposet.GeneralizedInterval: {"second": eventposet.GeneralizedInterval(90, 103),
                                         None: eventposet.GeneralizedInterval(49, 90)},
        eventposet.IntervalPair: {"a_pair": pair(1, -1), "b_pair": pair(2, -2),
                                  "first_pair": pair(1, 1), "second_pair": pair(1, 1),
                                  None: pair(4, 1)},
        eventposet.PairTransform: eventposet.PairTransform(4, 1),
        eventposet.SpacetimeCoords: eventposet.SpacetimeCoords(1, 0),
        eventposet.Betweenness: eventposet.Betweenness.P_SIDE,
        bool: True,
        int: {"y": 90, "b": 90, "p_event": p.elements[0], "q_event": q.elements[0],
              "ref": p.elements[0], "seed": 0, "count": 1, None: 49},
        collections.abc.Sequence: (0,),
        CHAIN_MAPPING: {None: lattice.chains},
    }


def _kind(hint):
    return CHAIN_MAPPING if hint == CHAIN_MAPPING else typing.get_origin(hint) or hint


def _signature_cases():
    """``(function, {parameter: its type})`` for each function of the
    namespace, and ``verify.run_for``, that takes an object argument; a
    parameter with a default keeps it unless its type is an object type or
    a chain mapping."""
    cases = []
    functions = [fn for _, fn in sorted(vars(eventposet).items()) if inspect.isfunction(fn)]
    for fn in [*functions, verify.run_for]:
        hints = typing.get_type_hints(fn)
        hints.pop("return", None)
        if not any(hint in OBJECT_TYPES for hint in hints.values()):
            continue
        cases.append((fn, {
            param.name: _kind(hints[param.name])
            for param in inspect.signature(fn).parameters.values()
            if param.default is param.empty
            or hints[param.name] in OBJECT_TYPES
            or _kind(hints[param.name]) is CHAIN_MAPPING
        }))
    return cases


def _arguments(params: dict, valid: dict) -> dict:
    arguments = {}
    for name, kind in params.items():
        value = valid[kind]
        if isinstance(value, dict):
            value = value.get(name, value[None])
        arguments[name] = value
    return arguments


def _decoy(kind: type, valid: dict):
    """A ValuedChain where a Chain is expected and the reverse; a tuple for
    any other type."""
    if kind is eventposet.Chain:
        return valid[eventposet.ValuedChain][None]
    if kind is eventposet.ValuedChain:
        return valid[eventposet.Chain][None]
    return (1, 1)


SIGNATURE_CASES = _signature_cases()


@pytest.mark.parametrize("fn, params", SIGNATURE_CASES,
                         ids=[fn.__name__ for fn, _ in SIGNATURE_CASES])
def test_valid_arguments_of_the_signature_test_are_accepted(fn, params):
    fn(**_arguments(params, _valid_arguments()))


@pytest.mark.parametrize("fn, params, name, decoy", [
    pytest.param(fn, params, name, decoy, id=f"{fn.__name__}-{name}-{decoy}")
    for fn, params in SIGNATURE_CASES
    for name, kind in params.items() if kind in OBJECT_TYPES
    for decoy in ("none", "decoy")
])
def test_every_object_parameter_refuses_another_type(fn, params, name, decoy):
    valid = _valid_arguments()
    arguments = _arguments(params, valid)
    arguments[name] = None if decoy == "none" else _decoy(params[name], valid)
    with pytest.raises(InvalidArgumentError):
        fn(**arguments)


@pytest.mark.parametrize("fn, params, name, decoy", [
    pytest.param(fn, params, name, decoy, id=f"{fn.__name__}-{name}-{decoy}")
    for fn, params in SIGNATURE_CASES
    for name, kind in params.items() if kind is CHAIN_MAPPING
    for decoy in ("int", "none-chain", "int-name", "other-poset")
])
def test_every_chain_mapping_parameter_refuses_another_mapping(fn, params, name, decoy):
    valid = _valid_arguments()
    arguments = _arguments(params, valid)
    p = valid[eventposet.ValuedChain][None]
    arguments[name], error = {
        "int": (5, InvalidArgumentError),
        "none-chain": ({"a": None}, InvalidArgumentError),
        "int-name": ({1: p}, InvalidArgumentError),
        "other-poset": ({"P": eventposet.standard_lattice(12, 12).chains["P"]},
                        DifferentChainsError),
    }[decoy]
    with pytest.raises(error):
        fn(**arguments)


def _checks_in_handlers(tree: ast.AST) -> list[int]:
    """Lines of the ``except`` handlers in ``tree`` that call ``_check_type``:
    the type of an object argument is checked up front, never after a
    failed read."""
    return [
        handler.lineno
        for handler in ast.walk(tree)
        if isinstance(handler, ast.ExceptHandler)
        and any(
            isinstance(node, ast.Call) and ast.unparse(node.func) == "_check_type"
            for node in ast.walk(handler)
        )
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_handler_checks_an_argument_type(path):
    assert _checks_in_handlers(ast.parse(path.read_text())) == []


def test_the_handler_guard_sees_a_check_after_a_failed_read():
    tree = ast.parse(
        "def f(p):\n"
        "    try:\n"
        "        return p.first\n"
        "    except AttributeError:\n"
        "        _check_type(p, IntervalPair, 'an interval pair')\n"
        "        raise\n"
    )
    assert _checks_in_handlers(tree) == [4]

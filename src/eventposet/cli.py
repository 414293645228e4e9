"""Command-line interface.

Load a poset from the text format or generate one, then inspect it:

    eventposet project --gen lattice:8,8 --chain P
    eventposet quantify --gen lattice:12,12 --interval 49 90 --chains P Q
    eventposet transform --m 4 --n 1 --pair 2 2
    eventposet verify

Exit status: 0 on success, 1 for a domain error or a failed
verification, 2 for a usage error (bad argv, an unreadable file or a bad
generator spec; reported with the subcommand's usage line).
"""
from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from pathlib import Path

from .chains import _RATIONAL_TOKEN, ValuedChain, _parse_rational
from .dotexport import export_dot
from .errors import EventPosetError, FormatError
from .generators import generate_random, generate_simplex, standard_lattice
from .intervals import (
    GeneralizedInterval,
    classify_interval,
    decompose,
    distance_of_pair,
    interval_pair_two_chains,
    length_of_pair,
    pair,
)
from .poset import Poset
from .projection import classify_projection
from .spacetime import (
    PairTransform,
    apply_pair_transform,
    beta,
    detect_linear_relation,
    gamma,
    interval_scalar,
    lorentz_matrix,
    minkowski_form,
    scalar_length,
    subspace_projection,
)
from .structure import (
    Betweenness,
    _collinearity_table,
    _side,
    betweenness_of,
)
from .textio import format_poset_text, parse_poset_text


class _UsageError(Exception):
    """Bad command-line input found after parsing; reported as exit 2."""


def _load(args) -> tuple[Poset, dict[str, ValuedChain]]:
    if args.input is not None:
        try:
            text = Path(args.input).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise _UsageError(f"cannot read --input: {exc}") from None
        return parse_poset_text(text)
    if args.gen is not None:
        try:
            return _generate(args.gen)
        except ValueError as exc:
            raise _UsageError(f"--gen {args.gen}: {exc}") from None
    raise _UsageError("one of --input or --gen is required")


def _generate(spec: str) -> tuple[Poset, dict[str, ValuedChain]]:
    kind, _, rest = spec.partition(":")
    params = rest.split(",") if rest else []
    if kind == "lattice":
        if len(params) != 2:
            raise _UsageError("--gen lattice takes U,V")
        lattice = standard_lattice(int(params[0]), int(params[1]))
        return lattice.poset, lattice.chains
    if kind == "simplex":
        if len(params) != 1:
            raise _UsageError("--gen simplex takes N")
        return generate_simplex(int(params[0]))
    if kind == "random":
        if len(params) != 3:
            raise _UsageError("--gen random takes SEED,N,DENSITY")
        poset = generate_random(int(params[0]), int(params[1]), float(params[2]))
        return poset, {}
    raise _UsageError(f"unknown generator {kind!r}")


def _write_out(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise _UsageError(f"cannot write --out: {exc}") from None


def _rational(text: str) -> Fraction:
    """argparse type for rationals such as ``3``, ``-3/2`` or ``0.5``,
    bounded as in the text format."""
    try:
        return _parse_rational(text)
    except FormatError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _chain(chains: dict[str, ValuedChain], name: str) -> ValuedChain:
    if name not in chains:
        raise _UsageError(f"no chain named {name!r}; available: {sorted(chains)}")
    return chains[name]


def _chain_pair(args) -> tuple[ValuedChain, ValuedChain]:
    """The two chains that ``--chains`` names, from the loaded poset."""
    _, chains = _load(args)
    return _chain(chains, args.chains[0]), _chain(chains, args.chains[1])


def _add_source_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", help="poset text file")
    parser.add_argument(
        "--gen",
        help="built-in generator: lattice:U,V | simplex:N | random:SEED,N,DENSITY",
    )


def _cmd_build(args) -> int:
    poset, chains = _load(args)
    if args.out:
        _write_out(args.out, format_poset_text(poset, chains))
    print(f"events {poset.event_count}")
    print(f"cover edges {len(poset.cover_edges())}")
    for name in sorted(chains):
        print(f"chain {name} length {len(chains[name])}")
    return 0


def _cmd_project(args) -> int:
    poset, chains = _load(args)
    vc = _chain(chains, args.chain)
    for event in poset.events():
        outcome = classify_projection(event, vc.chain)
        fwd = vc.value_of(outcome.forward) if outcome.forward is not None else "."
        bwd = vc.value_of(outcome.backward) if outcome.backward is not None else "."
        print(f"{event} ({fwd},{bwd})")
    return 0


def _cmd_classify(args) -> int:
    p, q = _chain_pair(args)
    for event, case in enumerate(_collinearity_table(p.chain, q.chain)):
        if case is None:
            print(f"{event} - -")
            continue
        side = _side(case)
        side_text = side.value if side is not Betweenness.NONE else "-"
        print(f"{event} {case.value} {side_text}")
    return 0


def _cmd_relate(args) -> int:
    s, p = _chain_pair(args)
    relation = detect_linear_relation(s, p)
    print(f"m = {relation.m}")
    print(f"n = {relation.n}")
    return 0


def _print_pair_report(interval_pair) -> None:
    symmetric, antisymmetric = decompose(interval_pair)
    classification = classify_interval(interval_pair)
    scalar = interval_scalar(interval_pair)
    print(f"pair = {interval_pair}")
    print(f"symmetric part = {symmetric}")
    print(f"antisymmetric part = {antisymmetric}")
    purity = "pure " if classification.pure else ""
    print(f"class = {purity}{classification.kind.value}")
    print(f"length = {length_of_pair(interval_pair)}")
    print(f"distance = {distance_of_pair(interval_pair)}")
    print(f"scalar = {scalar.value} ({scalar.character.value})")


def _cmd_quantify(args) -> int:
    p, q = _chain_pair(args)
    interval = GeneralizedInterval(args.interval[0], args.interval[1])
    _print_pair_report(interval_pair_two_chains(interval, p, q))
    return 0


def _cmd_transform(args) -> int:
    transform = PairTransform(args.m, args.n)
    source = pair(*args.pair)
    moved = apply_pair_transform(source, transform)
    matrix = lorentz_matrix(transform)
    print(f"pair' = {moved}")
    print(f"beta = {beta(transform)}")
    print(f"gamma = {gamma(transform)}")
    print(f"matrix = [[{matrix[0][0]}, {matrix[0][1]}], [{matrix[1][0]}, {matrix[1][1]}]]")
    return 0


def _cmd_scalar(args) -> int:
    source = pair(*args.pair)
    scalar = interval_scalar(source)
    sigma = scalar_length(source)
    _, dt2, dx2 = minkowski_form(source)
    print(f"scalar = {scalar.value} ({scalar.character.value})")
    print(f"sigma = {sigma}")
    print(f"dt^2 = {dt2}")
    print(f"dx^2 = {dx2}")
    return 0


def _cmd_dot(args) -> int:
    p, q = _chain_pair(args)
    x, y = args.x, args.y
    value = subspace_projection(x, y, p, q)
    for event in (x, y):
        if betweenness_of(event, p.chain, q.chain) is not Betweenness.BETWEEN:
            print(f"note: endpoint {event} is outside the chain slab (extrapolated)")
    print(f"projection = {value}")
    return 0


def _cmd_verify(args) -> int:
    # Imported here: no other subcommand needs the invariant suite.
    from .verify import run_all, run_for

    if args.input is not None or args.gen is not None:
        poset, chains = _load(args)
        results = run_for(poset, chains, report=print)
    else:
        results = run_all(report=print)
    failures = [r for r in results if not r.passed]
    print(f"{len(results) - len(failures)}/{len(results)} checks passed")
    return 1 if failures else 0


def _cmd_export(args) -> int:
    poset, chains = _load(args)
    try:
        text = export_dot(poset, chains, mode=args.mode)
    except ValueError as exc:  # a geometric view of a poset without chains
        raise _UsageError(str(exc)) from None
    if args.out:
        _write_out(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _accept_negative_rationals(parser: argparse.ArgumentParser) -> None:
    # argparse treats "-3/2" as an option name; its negative-number
    # detection becomes the rational token grammar, so every token that
    # the rational parser reads parses as a value.
    if hasattr(parser, "_negative_number_matcher"):
        parser._negative_number_matcher = _RATIONAL_TOKEN


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eventposet",
        description="Quantify event posets by chain projection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="load or generate a poset, print a summary")
    _add_source_args(build)
    build.add_argument("--out", help="write the poset text format here")
    build.set_defaults(fn=_cmd_build)

    project = sub.add_parser("project", help="per-event projection pair table")
    _add_source_args(project)
    project.add_argument("--chain", required=True)
    project.set_defaults(fn=_cmd_project)

    classify = sub.add_parser("classify", help="collinearity case per event")
    _add_source_args(classify)
    classify.add_argument("--chains", nargs=2, required=True, metavar=("P", "Q"))
    classify.set_defaults(fn=_cmd_classify)

    relate = sub.add_parser("relate", help="projection step lengths of S onto P")
    _add_source_args(relate)
    relate.add_argument("--chains", nargs=2, required=True, metavar=("S", "P"))
    relate.set_defaults(fn=_cmd_relate)

    quantify = sub.add_parser("quantify", help="interval pair and derived measures")
    _add_source_args(quantify)
    quantify.add_argument("--interval", nargs=2, type=int, required=True, metavar=("A", "B"))
    quantify.add_argument("--chains", nargs=2, required=True, metavar=("P", "Q"))
    quantify.set_defaults(fn=_cmd_quantify)

    transform = sub.add_parser("transform", help="apply a pair transform")
    transform.add_argument("--m", type=_rational, required=True)
    transform.add_argument("--n", type=_rational, required=True)
    transform.add_argument("--pair", nargs=2, type=_rational, required=True, metavar=("DP", "DQ"))
    transform.set_defaults(fn=_cmd_transform)
    _accept_negative_rationals(transform)

    scalar = sub.add_parser("scalar", help="interval scalar of a pair")
    scalar.add_argument("--pair", nargs=2, type=_rational, required=True, metavar=("DP", "DQ"))
    scalar.set_defaults(fn=_cmd_scalar)
    _accept_negative_rationals(scalar)

    dot = sub.add_parser("dot", help="subspace projection of an interval")
    _add_source_args(dot)
    dot.add_argument("--x", type=int, required=True)
    dot.add_argument("--y", type=int, required=True)
    dot.add_argument("--chains", nargs=2, required=True, metavar=("P", "Q"))
    dot.set_defaults(fn=_cmd_dot)

    verify = sub.add_parser("verify", help="run the invariant suite")
    _add_source_args(verify)
    verify.set_defaults(fn=_cmd_verify)

    export = sub.add_parser("export", help="DOT text in hasse or geometric view")
    _add_source_args(export)
    export.add_argument("--mode", choices=("hasse", "geometric"), default="hasse")
    export.add_argument("--out")
    export.set_defaults(fn=_cmd_export)

    for command in sub.choices.values():
        command.set_defaults(usage_error=command.error)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.fn(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader went away (``| head``). Point stdout at devnull so the
        # flush at exit does not fail again, as Python's signal docs advise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except _UsageError as exc:
        args.usage_error(str(exc))
    except EventPosetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())

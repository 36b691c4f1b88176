"""Command-line front end; every report is JSON (default) or CSV.

Exit codes: 0 success, 2 invalid input, 3 solver budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .greedy import _greedy_terms
from .lemma1 import MODES, lemma1_certificate, nongreedy_two_term_measure
from .measure import cell_decay_bound, chain_check, sample_chain_density
from .partition import Cell, cell_of, cells_in_window, cells_to_csv, next_regular_above
from .rational import format_rational, format_rational_scaled, parse_int, parse_rational
from .search import ResourceLimitError, best_underapprox


def _add_global_flags(parser: argparse.ArgumentParser, with_defaults: bool) -> None:
    """The global flags; every subcommand accepts them too, after its name.

    A subcommand's copies default to SUPPRESS, so a flag given only before
    the subcommand is not reset by the subcommand's parser.
    """

    def default(value):
        return value if with_defaults else argparse.SUPPRESS

    # every type=int argument reads any length, and errors still name "int"
    parser.register("type", int, parse_int)
    parser.add_argument("--json", action="store_true", default=default(False),
                        help="JSON output (default)")
    parser.add_argument("--csv", action="store_true", default=default(False),
                        help="CSV output where supported")
    parser.add_argument(
        "--node-budget", type=int, metavar="N", default=default(None),
        help="units each search or certificate may spend: one per search node or "
        "loop step, one per certificate term or competitor pair (default 10^7)",
    )
    parser.add_argument(
        "--threads", type=int, default=default(1), metavar="T",
        help="accepted for interface compatibility; the reference "
        "implementation is single-threaded and output never depends on T",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="egy",
        description="Exact Egyptian-fraction underapproximations, partitions, "
        "and measure certificates.  Rationals are written p/q (or p).",
    )
    _add_global_flags(parser, with_defaults=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("greedy", help="greedy n-term underapproximation")
    p.add_argument("x")
    p.add_argument("n", type=int)

    p = sub.add_parser("best", help="best n-term underapproximation")
    p.add_argument("x")
    p.add_argument("n", type=int)

    p = sub.add_parser("cell", help="partition cell containing x at level n")
    p.add_argument("x")
    p.add_argument("n", type=int)

    p = sub.add_parser("cells", help="cells tiling the window (a, b] at level n")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("n", type=int)
    p.add_argument("--max-cells", type=int, default=10_000)

    p = sub.add_parser("regular", help="regular value >= x within the density bound")
    p.add_argument("x")
    p.add_argument("n", type=int)

    p = sub.add_parser("chain", help="chain (eventually-greedy) check for levels n0..t")
    p.add_argument("x")
    p.add_argument("n0", type=int)
    p.add_argument("t", type=int)

    p = sub.add_parser("lemma1", help="non-greedy measure certificate for slice i")
    p.add_argument("i", type=int)
    p.add_argument("--mode", choices=MODES, default="paper")

    p = sub.add_parser("nongreedy", help="exact non-greedy two-term measure for slice i")
    p.add_argument("i", type=int)

    p = sub.add_parser("decay", help="chain-survivor decay bound for the cell (q, r]")
    p.add_argument("q")
    p.add_argument("r")
    p.add_argument("t", type=int)
    p.add_argument("--imax", type=int, required=True)
    p.add_argument("--slice-bound", choices=("lemma", "exact"), default="lemma")

    p = sub.add_parser("sample", help="sampled chain density over (0, H_s]")
    p.add_argument("s", type=int)
    p.add_argument("t", type=int)
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bits", type=int, default=32)

    for subparser in sub.choices.values():
        _add_global_flags(subparser, with_defaults=False)
    return parser


def _cell_dict(cell: Cell) -> dict:
    return {
        "level": cell.level,
        "lower": format_rational(cell.lower),
        "upper": "+inf" if cell.upper is None else format_rational(cell.upper),
        "length": None if cell.upper is None else format_rational(cell.upper - cell.lower),
        "best_rep": None if cell.best_rep is None else list(cell.best_rep),
    }


def _json_text(value) -> str:
    """``json.dumps(value)`` for a report of dicts, lists, strings, bools,
    None and ints, with every int printed by ``format_rational``: ``str()``
    of an int is quadratic, and refused past the int-to-str digit limit."""
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_json_text(v)}" for k, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(_json_text, value)) + "]"
    if isinstance(value, int) and not isinstance(value, bool):
        return format_rational(value)
    return json.dumps(value)


def _run(args: argparse.Namespace) -> str:
    """The command's stdout: its CSV table under --csv when it has one
    (cells, sample), its JSON report otherwise.  Only that form is built."""
    budget = args.node_budget
    if args.command == "greedy":
        rep, value = _greedy_terms(parse_rational(args.x), args.n)
        report = {"rep": rep, "value": format_rational(value)}
    elif args.command == "best":
        value, rep = best_underapprox(parse_rational(args.x), args.n, budget)
        report = {"value": format_rational(value), "rep": list(rep)}
    elif args.command == "cell":
        report = _cell_dict(cell_of(parse_rational(args.x), args.n, budget))
    elif args.command == "cells":
        cells, uncovered = cells_in_window(
            parse_rational(args.a), parse_rational(args.b), args.n,
            args.max_cells, budget,
        )
        if args.csv:
            return cells_to_csv(cells)
        report = {
            "cells": [_cell_dict(c) for c in cells],
            "uncovered": format_rational(uncovered),
        }
    elif args.command == "regular":
        report = {"value": format_rational(next_regular_above(parse_rational(args.x), args.n))}
    elif args.command == "chain":
        report = chain_check(parse_rational(args.x), args.n0, args.t, node_budget=budget).to_dict()
    elif args.command == "lemma1":
        report = lemma1_certificate(args.i, args.mode, budget).to_dict()
    elif args.command == "nongreedy":
        scale = (args.i - 1) * args.i
        measure, ratio = format_rational_scaled(nongreedy_two_term_measure(args.i, budget), scale)
        report = {
            "i": args.i,
            "measure": measure,
            "interval_length": format_rational(Fraction(1, scale)),
            "ratio": ratio,
        }
    elif args.command == "decay":
        cell = Cell(level=args.t, lower=parse_rational(args.q), upper=parse_rational(args.r),
                    best_rep=None)
        report = cell_decay_bound(cell, args.imax, args.slice_bound, budget).to_dict()
    elif args.command == "sample":
        sampled = sample_chain_density(args.s, args.t, args.count, args.seed, args.bits, budget)
        if args.csv:
            return sampled.to_csv()
        report = sampled.to_dict()
    else:
        raise AssertionError(f"unhandled command {args.command}")
    return _json_text(report) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.json and args.csv:
        parser.error("--json and --csv are mutually exclusive")
    if args.threads < 1:
        parser.error("--threads must be >= 1")
    if args.node_budget is not None and args.node_budget < 1:
        parser.error("--node-budget must be >= 1")
    try:
        text = _run(args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # downstream consumer (head, etc.) closed the pipe; not an error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

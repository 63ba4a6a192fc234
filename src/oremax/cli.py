"""Command-line front end.

Line-oriented, deterministic output; JSON on request for the report
commands.  Exit codes: 0 success, 1 usage error, 2 invalid parameters
or malformed input, 3 verification mismatch, 4 capacity exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .errors import CapacityError, Graph6ParseError, ParameterError
from .extremal import (FormulaMode, Parameters, _formula_sized,
                       build_backbone, enumerate_family, max_size_formula)
from .graphs import Graph, from_graph6, to_dot, to_edge_list, to_graph6
from .metrics import DISCONNECTED, connectivity, diameter
from .oracle import OracleReport, max_size_bruteforce, sweep, verify_theorem


class _UsageError(Exception):
    pass


_REPORTED = (ParameterError, Graph6ParseError, CapacityError)


def _report(exc: Exception, where: str = "") -> int:
    """Print a reported error to stderr and return its exit code."""
    print(f"oremax: error: {where}{exc}", file=sys.stderr)
    return 4 if isinstance(exc, CapacityError) else 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; this tool reserves 2
    # for semantic parameter errors, so route usage failures through an
    # exception and map them to exit 1 in run().
    def error(self, message):
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


def _add_instance_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, required=True, help="graph order")
    parser.add_argument("--k", type=int, required=True,
                        help="connectivity level")
    parser.add_argument("--d", type=int, required=True, help="diameter")


def _add_format_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=["graph6", "edgelist", "dot"],
                        default="graph6", help="output format")


@functools.cache
def _build_parser() -> _Parser:
    # built on the first run() and reused: parse_args returns a fresh
    # Namespace each call and keeps no state on the parser, and help text
    # reads the terminal width when it is printed
    parser = _Parser(
        prog="oremax",
        description="Maximum size of k-connected graphs of given order and "
                    "diameter: formula, extremal constructions, invariants, "
                    "and exhaustive verification.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command", parser_class=_Parser)

    p = sub.add_parser("formula", help="print the closed-form maximum size")
    _add_instance_flags(p)
    p.add_argument("--mode", choices=[m.value for m in FormulaMode],
                   default=FormulaMode.CORRECTED.value,
                   help="attachment-term multiplier variant")

    p = sub.add_parser("backbone", help="emit the backbone construction")
    p.add_argument("--k", type=int, required=True, help="connectivity level")
    p.add_argument("--d", type=int, required=True, help="diameter")
    _add_format_flag(p)

    p = sub.add_parser("family",
                       help="emit all extremal graphs, canonical order")
    _add_instance_flags(p)
    _add_format_flag(p)

    p = sub.add_parser("check",
                       help="per-graph invariants and extremality as TSV")
    p.add_argument("--k", type=int, required=True, help="connectivity level")
    p.add_argument("--input", default="-",
                   help="file of graph6 lines, or - for stdin (default)")

    p = sub.add_parser("oracle", help="brute-force maximum size")
    _add_instance_flags(p)
    p.add_argument("--json", action="store_true", help="full report as JSON")
    p.add_argument("--emit-extremal", action="store_true",
                   help="also list the maximizers as graph6")

    p = sub.add_parser("verify",
                       help="brute-force the instance and compare all claims")
    _add_instance_flags(p)
    p.add_argument("--json", action="store_true", help="full report as JSON")

    p = sub.add_parser("sweep", help="verify every instance within bounds")
    p.add_argument("--n-max", type=int, required=True, help="largest order")
    p.add_argument("--k-max", type=int, default=None,
                   help="largest connectivity level (default: n-max)")
    p.add_argument("--d-max", type=int, default=None,
                   help="largest diameter (default: n-max)")
    p.add_argument("--json", action="store_true", help="reports as JSON")

    return parser


def _serialize(g: Graph, fmt: str) -> str:
    if fmt == "graph6":
        return to_graph6(g)
    if fmt == "edgelist":
        return to_edge_list(g)
    return to_dot(g)


def _bool_text(value: bool) -> str:
    return "true" if value else "false"


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def _print_report(report: OracleReport) -> None:
    size = "infeasible" if report.max_size is None else report.max_size
    print(f"max_size {size}")
    print(f"corrected_match {_bool_text(report.corrected_match)}")
    print(f"paper_literal_match {_bool_text(report.paper_literal_match)}")
    print(f"family_match {_bool_text(report.family_match)}")
    for text in report.extremal:
        print(f"extremal {text}")


def _cmd_formula(args) -> int:
    p = Parameters(args.n, args.k, args.d)
    print(max_size_formula(p, FormulaMode(args.mode)))
    return 0


def _cmd_backbone(args) -> int:
    g, _ = build_backbone(args.k, args.d)
    print(_serialize(g, args.format))
    return 0


def _cmd_family(args) -> int:
    members = enumerate_family(Parameters(args.n, args.k, args.d))
    if members:
        sep = "\n" if args.format == "graph6" else "\n\n"
        print(sep.join(_serialize(g, args.format) for g in members))
    return 0


def _check_row(line: str, k: int) -> str:
    g = from_graph6(line)
    dia = diameter(g)
    kappa = connectivity(g)
    extremal = _formula_sized(g, k, dia) and kappa >= k
    dia_text = "disconnected" if dia is DISCONNECTED else str(dia)
    return (f"{to_graph6(g)}\t{g.order}\t{g.size}\t{dia_text}\t"
            f"{kappa}\t{_bool_text(extremal)}")


def _cmd_check(args) -> int:
    if args.k < 1:
        raise ParameterError("k must be at least 1")
    if args.input == "-":
        text = sys.stdin.read()
    else:
        # decoded as stdin is, so a non-ASCII byte reaches the graph6
        # parser and is reported as malformed input
        text = Path(args.input).read_text(encoding="utf-8",
                                          errors="surrogateescape")
    print("graph6\torder\tsize\tdiameter\tkappa\textremal")
    # a bad line is reported and skipped; the exit code is the worst seen
    worst = 0
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            print(_check_row(line, args.k))
        except _REPORTED as exc:
            worst = max(worst, _report(exc, f"line {number}: "))
    return worst


def _cmd_oracle(args) -> int:
    report = max_size_bruteforce(Parameters(args.n, args.k, args.d))
    if args.json:
        print(_json_text(report.to_dict()))
        return 0
    print("infeasible" if report.max_size is None else report.max_size)
    if args.emit_extremal:
        for text in report.extremal:
            print(text)
    return 0


def _cmd_verify(args) -> int:
    report = verify_theorem(Parameters(args.n, args.k, args.d))
    if args.json:
        print(_json_text(report.to_dict()))
    else:
        _print_report(report)
    return 0 if report.corrected_match and report.family_match else 3


def _cmd_sweep(args) -> int:
    reports = sweep(args.n_max, args.k_max, args.d_max)
    if args.json:
        print(_json_text([r.to_dict() for r in reports]))
    else:
        print("n\tk\td\tmax_size\tcorrected_match\tpaper_literal_match\t"
              "family_match\textremal_classes")
        for r in reports:
            print(f"{r.params.n}\t{r.params.k}\t{r.params.d}\t{r.max_size}\t"
                  f"{_bool_text(r.corrected_match)}\t"
                  f"{_bool_text(r.paper_literal_match)}\t"
                  f"{_bool_text(r.family_match)}\t{len(r.extremal)}")
    clean = all(r.corrected_match and r.family_match for r in reports)
    return 0 if clean else 3


_COMMANDS = {
    "formula": _cmd_formula,
    "backbone": _cmd_backbone,
    "family": _cmd_family,
    "check": _cmd_check,
    "oracle": _cmd_oracle,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
}


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except SystemExit as exc:
        # --help prints and exits 0 through argparse
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except _REPORTED as exc:
        return _report(exc)
    except OSError as exc:
        print(f"oremax: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    if sys.stdin is not None:
        # decoded as --input files are, so a bad byte is a bad line
        sys.stdin.reconfigure(encoding="utf-8", errors="surrogateescape")
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

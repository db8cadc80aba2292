"""Command-line surface: analyze, construct, verify.

Exit status: 0 clean, 1 findings or failed --require-quasi, 2 usage or
parse errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import constructions as cons
from .analysis import QUASI_TRANSITIVE, _is_diagonal_sum, analyze
from .genfile import (GeneratorFile, ParseError, file_from_group,
                      format_generators, group_from_file, parse_generators)
from .gf2 import IRREDUCIBLE
from .report import (action_report_document, step4_document, sweep_document)
from .verifier import SweepConfig, step4_check, sweep

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2

CONSTRUCT_NAMES = ("a7-pairs", "s7-pairs", "psl2", "pgammal2", "frobenius",
                   "regular", "sum")


def _env_int(name: str, default: int) -> int:
    value = os.environ.get(name)
    if value is None:
        return default
    try:
        return int(value)
    except ValueError:
        raise SystemExit(f"bad value for {name}: {value!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtperm",
        description="Permutation-group engine for quasi-transitivity analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="analyze a generator file")
    p_analyze.add_argument("file")
    p_analyze.add_argument("--require-quasi", action="store_true",
                           help="exit 1 unless the action is quasi-transitive")
    p_analyze.add_argument("--verbose", action="store_true",
                           help="human-readable summary on stderr")

    p_construct = sub.add_parser("construct",
                                 help="emit a generator file for a named action")
    p_construct.add_argument("name", choices=CONSTRUCT_NAMES)
    p_construct.add_argument("files", nargs="*",
                             help="input files for 'regular' and 'sum'")
    p_construct.add_argument("--f", type=int, default=3,
                             help="field exponent for psl2/pgammal2, one of "
                             + ", ".join(map(str, sorted(IRREDUCIBLE))))
    p_construct.add_argument("--p", type=int, default=5,
                             help="prime for frobenius")
    p_construct.add_argument("--action", choices=("projective", "cosets"),
                             default="projective",
                             help="which psl2/pgammal2 action to build")

    p_verify = sub.add_parser("verify", help="run the catalog sweep")
    p_verify.add_argument("--only", choices=("step4",),
                          help="run a single named check instead of the sweep")
    p_verify.add_argument("--max-degree", type=int)
    p_verify.add_argument("--max-order", type=int)
    p_verify.add_argument("--include-q32", action="store_true")
    p_verify.add_argument("--triples", action="store_true")
    p_verify.add_argument("--verbose", action="store_true",
                          help="one progress line per catalog entry and a "
                          "summary on stderr")
    return parser


def _cmd_analyze(args) -> int:
    with open(args.file, encoding="utf-8") as handle:
        gfile = parse_generators(handle.read())
    group = group_from_file(gfile)
    report = analyze(group)
    doc = action_report_document(report, label=gfile.label)
    json.dump(doc, sys.stdout, indent=2)
    print()
    if args.verbose:
        verdict = report.verdict
        print(f"degree {report.degree}, order {report.order}, "
              f"{len(report.orbit_reports)} orbit(s), verdict {verdict.status}"
              + (f" (t={verdict.t})" if verdict.t else ""),
              file=sys.stderr)
    if args.require_quasi and report.verdict.status != QUASI_TRANSITIVE:
        return EXIT_FINDINGS
    return EXIT_OK


def _construct_action(args) -> GeneratorFile:
    name = args.name
    if name == "a7-pairs":
        act = cons.action_on_k_subsets(cons.alternating_group(7), 2)
    elif name == "s7-pairs":
        act = cons.action_on_k_subsets(cons.symmetric_group(7), 2)
    elif name in ("psl2", "pgammal2"):
        projective = cons.psl2 if name == "psl2" else cons.pgammal2
        cosets = cons.psl2_cosets if name == "psl2" else cons.pgammal2_cosets
        act = projective(args.f) if args.action == "projective" \
            else cosets(args.f)
    elif name == "frobenius":
        act = cons.affine_frobenius(args.p)
    elif name == "regular":
        if len(args.files) != 1:
            raise SystemExit("construct regular needs exactly one input file")
        act = cons.regular_action(_action_from_path(args.files[0]))
    elif name == "sum":
        if len(args.files) < 2:
            raise SystemExit("construct sum needs at least two input files")
        summands = [_action_from_path(p) for p in args.files]
        act = cons.disjoint_sum(summands)
        if not _is_diagonal_sum(act.group, [a.degree for a in summands]):
            raise SystemExit("construct sum needs generator files of one group "
                             "with matching generators (the sum is not diagonal)")
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit(f"unknown construction {name!r}")
    return file_from_group(act.group, label=act.label)


def _action_from_path(path: str) -> cons.LabeledAction:
    with open(path, encoding="utf-8") as handle:
        gfile = parse_generators(handle.read())
    group = group_from_file(gfile)
    return cons.LabeledAction(group, gfile.label or path, range(group.degree))


def _cmd_construct(args) -> int:
    gfile = _construct_action(args)
    sys.stdout.write(format_generators(gfile))
    return EXIT_OK


def _print_entry(name: str, tested: int, skipped: int, seconds: float) -> None:
    print(f"{name}: tested {tested}, skipped {skipped}, {seconds:.3f}s",
          file=sys.stderr)


def _cmd_verify(args) -> int:
    # only verify reads the environment; a bad value exits 2 even where an
    # option or --only leaves it unused
    max_degree = _env_int("QTPERM_MAX_DEGREE", 600)
    max_order = _env_int("QTPERM_MAX_ORDER", 200_000)
    if args.only == "step4":
        json.dump(step4_document(step4_check()), sys.stdout, indent=2)
        print()
        return EXIT_OK
    config = SweepConfig(
        max_total_degree=max_degree if args.max_degree is None
        else args.max_degree,
        max_group_order=max_order if args.max_order is None
        else args.max_order,
        include_q32=args.include_q32,
        include_triples=args.triples,
    )
    result = sweep(config, _print_entry if args.verbose else None)
    json.dump(sweep_document(result), sys.stdout, indent=2)
    print()
    if args.verbose:
        print(f"tested {result.tested} sums, skipped {result.skipped}, "
              f"{len(result.findings)} finding(s)", file=sys.stderr)
    return EXIT_FINDINGS if result.findings else EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "construct":
            return _cmd_construct(args)
        return _cmd_verify(args)
    except (ParseError, OSError, ValueError, SystemExit) as exc:
        if isinstance(exc, SystemExit):
            message = str(exc)
        else:
            message = f"{type(exc).__name__}: {exc}"
        print(f"qtperm: {message}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())

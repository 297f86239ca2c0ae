"""Command-line driver.

Three subcommands:

  verify-axioms --dim N [--degree D] [--trials T] [--seed S]
                [--format json|text] [--report OUT]
      run the bracket axiom suite on seeded random sections
  check FILE [--report OUT] [--format json|text] [--timings]
      run the suites selected by a structure file
  examples NAME [--emit FILE]
      write a built-in example structure document

Exit codes: 0 all checks passed, 1 a mathematical check failed (or the
equivalence pattern was violated), 2 input or usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .courant import verify_axioms
from .errors import EngineError
from .runfile import MAX_DEGREE, MAX_DIMENSION, MAX_TRIALS, RunReport, SuiteReport, emit, exit_code
from .runfile import parse_structure, run
from .structures import EXAMPLE_NAMES, structure_file


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypercourant",
        description="Exact verification of quaternionic structures on TM (+) T*M.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    ax = sub.add_parser("verify-axioms", help="check the bracket axioms on random sections")
    ax.add_argument("--dim", type=int, required=True, help="chart dimension n >= 1")
    ax.add_argument("--degree", type=int, default=2, help=f"section degree bound, 0..{MAX_DEGREE}")
    ax.add_argument("--trials", type=int, default=20, help=f"number of random triples, 1..{MAX_TRIALS}")
    ax.add_argument("--seed", type=int, default=0, help="seed for the random sections, >= 0")
    ax.add_argument("--format", choices=("json", "text"), default="text")
    ax.add_argument("--report", metavar="FILE", help="write the report here instead of stdout")
    ax.set_defaults(run=_cmd_verify_axioms)

    ck = sub.add_parser("check", help="run the suites selected by a structure file")
    ck.add_argument("file", help="structure document (JSON)")
    ck.add_argument("--format", choices=("json", "text"), default="text")
    ck.add_argument("--report", metavar="FILE", help="write the report here instead of stdout")
    ck.add_argument("--timings", action="store_true", help="include wall time per suite")
    ck.set_defaults(run=_cmd_check)

    ex = sub.add_parser("examples", help="write a built-in example structure document")
    ex.add_argument("name", choices=EXAMPLE_NAMES)
    ex.add_argument("--emit", metavar="FILE", help="write here instead of stdout")
    ex.set_defaults(run=_cmd_examples)
    return parser


def _write(data: bytes, path: str | None) -> None:
    if path:
        with open(path, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()


def _cmd_verify_axioms(args) -> int:
    # the bounds a structure document has
    if args.trials < 1 or not 0 <= args.degree <= MAX_DEGREE:
        print(f"error: need --trials >= 1 and --degree in 0..{MAX_DEGREE}", file=sys.stderr)
        return 2
    if args.trials > MAX_TRIALS:
        print(f"error: need --trials at most {MAX_TRIALS}", file=sys.stderr)
        return 2
    if not 1 <= args.dim <= MAX_DIMENSION:
        print(f"error: need --dim in 1..{MAX_DIMENSION}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: need --seed >= 0", file=sys.stderr)
        return 2
    checks = verify_axioms(args.dim, args.degree, args.trials, args.seed)
    options = {"dim": args.dim, "degree": args.degree, "seed": args.seed, "trials": args.trials}
    report = RunReport("-", options, [SuiteReport("axioms", checks)])
    _write(emit(report, args.format), args.report)
    return exit_code(report)


def _cmd_check(args) -> int:
    sf = parse_structure(args.file)
    report = run(sf)
    _write(emit(report, args.format, include_timings=args.timings), args.report)
    return exit_code(report)


def _cmd_examples(args) -> int:
    doc = structure_file(args.name)
    data = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")
    _write(data, args.emit)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (EngineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

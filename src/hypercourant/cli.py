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
from .errors import EngineError
from .runfile import MAX_DEGREE, MAX_DIMENSION, MAX_TRIALS, emit, exit_code, parse_structure, run, run_axioms
from .structures import EXAMPLE_NAMES, structure_file


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypercourant",
        description="Exact verification of quaternionic structures on TM (+) T*M.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    ax = sub.add_parser("verify-axioms", help="check the bracket axioms on random sections")
    ax.add_argument("--dim", type=int, required=True, help=f"chart dimension n, 1..{MAX_DIMENSION}")
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
    report = run_axioms(args.dim, args.trials, args.degree, args.seed)
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

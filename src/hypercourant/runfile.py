"""Structure documents, suite orchestration, and report emission.

The input document is JSON with every symbolic entry written in the scalar
grammar; exactness forbids floats anywhere.  Reports are canonical: sorted
keys, exact rationals as "p/q" strings, and no wall-clock data unless
explicitly requested, so a given (input, seed, version) always produces
byte-identical output.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from . import __version__
from .cartan import TwoForm
from .courant import verify_axioms
from .endo import GEndo, HKTriple, lift_diagonal, lift_symplectic
from .errors import DimensionMismatch, SchemaError
from .nijenhuis import CONNECTION_SUITES, INCONSISTENT, connection_pass
from .parse import parse_scalar

SUITES = ("axioms", "certification", "connection-laws", "identities", "theorem")

_DEFAULT_OPTIONS = {"trials": 10, "degree": 2, "seed": 0}

# Largest degree of the random trial sections; the cost of a trial grows
# steeply with it, and every shipped document uses at most 2.
MAX_DEGREE = 4

# Largest chart dimension; one axiom trial at degree 2 takes 1.1-1.5 s at
# n = 8 against about 0.3 s at n = 6 (2-core VM), and the cost grows steeply
# with n.
MAX_DIMENSION = 8

# Most random trials per suite; the shipped documents use 6 to 10 and
# verify-axioms defaults to 20, while the run time grows linearly with it.
MAX_TRIALS = 100


class StructureFile(NamedTuple):
    """A validated structure document."""

    dimension: int
    triple: HKTriple
    checks: tuple
    trials: int
    degree: int
    seed: int
    digest: str


class SuiteReport(NamedTuple):
    suite: str
    status: str  # pass | fail | skipped
    checks: Sequence = ()  # an immutable default, so reports share no container
    theorem: object = None
    reason: str = ""

    def to_dict(self) -> dict:
        out = {"suite": self.suite, "status": self.status}
        if self.reason:
            out["reason"] = self.reason
        if self.theorem is not None:
            out["theorem"] = self.theorem.to_dict()
        if self.checks:
            out["checks"] = [c.to_dict() for c in self.checks]
        return out


class RunReport(NamedTuple):
    version: str
    input_digest: str
    options: dict
    suites: list
    verdict: str
    timings: Mapping = MappingProxyType({})  # immutable too

    def to_dict(self, include_timings: bool = False) -> dict:
        out = {
            "version": self.version,
            "input-digest": self.input_digest,
            "options": dict(self.options),
            "suites": [s.to_dict() for s in self.suites],
            "verdict": self.verdict,
        }
        if include_timings:
            out["timings"] = {k: round(v, 3) for k, v in self.timings.items()}
        return out


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def _require(cond: bool, message: str):
    if not cond:
        raise SchemaError(message)


def _parse_matrix(rows, n: int, what: str):
    if not isinstance(rows, list) or len(rows) != n or any(
        not isinstance(r, list) or len(r) != n for r in rows
    ):
        raise DimensionMismatch(f"{what} must be a {n}x{n} array")
    _require(
        all(isinstance(entry, str) for row in rows for entry in row),
        f"{what}: entries must be strings in the scalar grammar",
    )
    return tuple(tuple(parse_scalar(entry, n) for entry in row) for row in rows)


def _only(spec: dict, keys: tuple, what: str, form: str) -> None:
    unknown = sorted(set(spec) - set(keys))
    _require(not unknown, f"{what}: unknown keys {unknown} for the {form} form")


def _parse_endo(spec, n: int, what: str) -> GEndo:
    _require(isinstance(spec, dict), f"{what} must be an object")
    if "lift" in spec:
        kind = spec["lift"]
        if kind == "diagonal":
            _require("j" in spec, f"{what}: diagonal lift needs a 'j' matrix")
            _only(spec, ("lift", "j"), what, "diagonal")
            return lift_diagonal(_parse_matrix(spec["j"], n, f"{what}.j"))
        if kind == "symplectic":
            _require(
                "omega" in spec and "omega_inv" in spec,
                f"{what}: symplectic lift needs 'omega' and 'omega_inv'",
            )
            _only(spec, ("lift", "omega", "omega_inv"), what, "symplectic")
            omega = TwoForm(_parse_matrix(spec["omega"], n, f"{what}.omega"))
            inv = _parse_matrix(spec["omega_inv"], n, f"{what}.omega_inv")
            return lift_symplectic(omega, inv)
        raise SchemaError(f"{what}: unknown lift kind {kind!r}")
    missing = [k for k in ("A", "B", "C", "D") if k not in spec]
    _require(not missing, f"{what}: block form needs A, B, C, D (missing {missing})")
    _only(spec, ("A", "B", "C", "D"), what, "block")
    return GEndo(
        _parse_matrix(spec["A"], n, f"{what}.A"),
        _parse_matrix(spec["B"], n, f"{what}.B"),
        _parse_matrix(spec["C"], n, f"{what}.C"),
        _parse_matrix(spec["D"], n, f"{what}.D"),
    )


def parse_structure_text(text: str) -> StructureFile:
    """Parse and validate a structure document from JSON text."""
    try:
        data = text.encode("utf-8")
    except UnicodeEncodeError:  # argv bytes that did not decode
        raise SchemaError("the document is not valid UTF-8") from None
    digest = "sha256:" + hashlib.sha256(data).hexdigest()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from None
    except ValueError:  # an integer beyond the interpreter's int() digit limit
        raise SchemaError("not valid JSON: a number has too many digits") from None
    except RecursionError:
        raise SchemaError("not valid JSON: nested too deeply") from None
    _require(isinstance(doc, dict), "top level must be an object")
    unknown = set(doc) - {"dimension", "coordinates", "structure", "checks", "options"}
    _require(not unknown, f"unknown top-level keys {sorted(unknown)}")

    n = doc.get("dimension")
    _require(type(n) is int and n >= 1, "'dimension' must be an integer >= 1")
    _require(n <= MAX_DIMENSION, f"'dimension' must be at most {MAX_DIMENSION}")
    coords = tuple(f"x{k + 1}" for k in range(n))
    _require(
        doc.get("coordinates", list(coords)) == list(coords),
        "'coordinates' must be x1..xn in order (the scalar grammar fixes the names)",
    )

    _require("structure" in doc and isinstance(doc["structure"], dict), "'structure' is required")
    st = doc["structure"]
    _require("I" in st and "J" in st, "'structure' needs at least I and J")
    unknown = set(st) - {"I", "J", "K"}
    _require(not unknown, f"unknown structure members {sorted(unknown)}")
    i_endo = _parse_endo(st["I"], n, "I")
    j_endo = _parse_endo(st["J"], n, "J")
    k_endo = _parse_endo(st["K"], n, "K") if "K" in st else None
    triple = HKTriple.certify(i_endo, j_endo, k_endo)

    checks = doc.get("checks", list(SUITES))
    _require(isinstance(checks, list), "'checks' must be a list of suite names")
    _require(checks, "'checks' must name at least one suite")
    checks = tuple(checks)
    for c in checks:
        _require(c in SUITES, f"unknown check suite {c!r} (known: {', '.join(SUITES)})")
    _require(len(set(checks)) == len(checks), "'checks' must not repeat suites")

    given = doc.get("options", {})
    _require(isinstance(given, dict), "'options' must be an object")
    options = dict(_DEFAULT_OPTIONS)
    for key, value in given.items():
        _require(key in options, f"unknown option {key!r}")
        _require(type(value) is int and value >= 0, f"option {key!r} must be a nonnegative integer")
        options[key] = value
    _require(
        1 <= options["trials"] <= MAX_TRIALS,
        f"option 'trials' must be at least 1 and at most {MAX_TRIALS}",
    )
    _require(options["degree"] <= MAX_DEGREE, f"option 'degree' must be at most {MAX_DEGREE}")

    return StructureFile(
        dimension=n,
        triple=triple,
        checks=checks,
        trials=options["trials"],
        degree=options["degree"],
        seed=options["seed"],
        digest=digest,
    )


def parse_structure(source: str) -> StructureFile:
    """Parse from a file path, or directly from JSON text.  A strict UTF-8
    decode round-trips, so a file's digest is the sha256 of its bytes."""
    if os.path.exists(source):
        with open(source, "rb") as fh:
            data = fh.read()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError:
            raise SchemaError("the file is not valid UTF-8") from None
        return parse_structure_text(text)
    stripped = source.lstrip()
    if stripped.startswith("{"):
        return parse_structure_text(source)
    raise SchemaError(f"no such file: {source}")


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------


def _suite_status(checks) -> str:
    return "pass" if all(c.passed for c in checks) else "fail"


def run(sf: StructureFile) -> RunReport:
    """Run the selected suites in order; failures land in the report."""
    suites = []
    timings = {}
    certified = sf.triple.certified
    results, seconds = {}, {}
    selected = [s for s in sf.checks if s in CONNECTION_SUITES]
    if certified and selected:
        results, seconds = connection_pass(sf.triple, selected, sf.trials, sf.seed, sf.degree)

    for suite in sf.checks:
        started = time.perf_counter()
        if suite == "axioms":
            checks = verify_axioms(sf.dimension, sf.degree, sf.trials, sf.seed)
            suites.append(SuiteReport(suite, _suite_status(checks), checks))
        elif suite == "certification":
            checks = list(sf.triple.orthogonality) + [sf.triple.quaternionic]
            suites.append(SuiteReport(suite, _suite_status(checks), checks))
        elif not certified:
            suites.append(
                SuiteReport(suite, "skipped", reason="structure failed certification")
            )
        elif suite == "theorem":
            rep = results[suite]
            if rep.passed:
                suites.append(SuiteReport(suite, "pass", theorem=rep))
            else:
                suites.append(SuiteReport(suite, "fail", theorem=rep, reason=INCONSISTENT))
        else:
            suites.append(SuiteReport(suite, _suite_status(results[suite]), results[suite]))
        timings[suite] = seconds.get(suite, time.perf_counter() - started)

    verdict = "pass" if all(s.status == "pass" for s in suites) else "fail"
    return RunReport(
        version=__version__,
        input_digest=sf.digest,
        options={"trials": sf.trials, "degree": sf.degree, "seed": sf.seed},
        suites=suites,
        verdict=verdict,
        timings=timings,
    )


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def emit(report: RunReport, fmt: str = "json", include_timings: bool = False) -> bytes:
    """Serialize a report; canonical JSON or a human-readable table."""
    if fmt == "json":
        doc = report.to_dict(include_timings)
        return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")
    if fmt == "text":
        return _emit_text(report, include_timings).encode("utf-8")
    raise ValueError(f"unknown format {fmt!r}")


def _emit_text(report: RunReport, include_timings: bool) -> str:
    lines = [
        f"hypercourant {report.version}",
        f"input      {report.input_digest}",
        f"options    {json.dumps(report.options, sort_keys=True)}",
        "",
    ]
    for s in report.suites:
        head = f"suite {s.suite:<17} {s.status}"
        if include_timings and s.suite in report.timings:
            head += f"  ({report.timings[s.suite]:.2f}s)"
        if s.reason:
            head += f"  [{s.reason}]"
        lines.append(head)
        if s.checks:
            failed = [c for c in s.checks if not c.passed]
            lines.append(f"    checks: {len(s.checks) - len(failed)}/{len(s.checks)} passed")
            for c in failed:
                where = f" trial {c.trial}" if c.trial is not None else ""
                lines.append(f"    FAIL {c.check_id}{where}")
                if c.witness is not None:
                    w = c.witness
                    lines.append(f"         residual {w.label} = {w.expression}")
                    lines.append(f"         at point ({', '.join(w.point)}) value {w.value}")
        if s.theorem is not None:
            t = s.theorem
            parts = []
            for key, st in t.concomitants.items():
                parts.append(f"N[{key}]{'=0' if st.vanishes else '!=0'}")
            lines.append(f"    concomitants: {' '.join(parts)}")
            for key, st in t.concomitants.items():
                if not st.vanishes and st.witness is not None:
                    w = st.witness
                    lines.append(f"    witness {w.label}")
                    lines.append(f"         residual = {w.expression}")
                    lines.append(f"         at point ({', '.join(w.point)}) value {w.value}")
            lines.append(
                "    connections-agree={} parallel(I,J,K)=({},{},{}) torsion-formula={}".format(
                    t.connections_agree,
                    t.parallel["I"],
                    t.parallel["J"],
                    t.parallel["K"],
                    t.torsion_formula,
                )
            )
            lines.append(f"    theorem verdict: {t.verdict} (consistency {t.consistency})")
    lines.append("")
    lines.append(f"verdict: {report.verdict}")
    lines.append("")
    return "\n".join(lines)


def exit_code(report: RunReport) -> int:
    return 0 if report.verdict == "pass" else 1

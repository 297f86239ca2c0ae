"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line and enforcing its stated wall-clock budget.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.

Criterion 6 checks that the concomitant is tensorial where the mathematics
says it is and that the first-slot defect N(fX,Y) - f N(X,Y) is computed,
not assumed away.  For the identity pair the eight terms of N cancel
pairwise, so the defect is exactly zero; for the tangent/cotangent swap,
which is orthogonal but squares to +1, it is exactly -8 d/dx1 + 8 dx1.  Each
value is matched by direct evaluation, by the closed defect formula and by
the independent Leibniz-rule oracle.
"""

import functools
import json
import time
from fractions import Fraction

from hypercourant.cli import main
from hypercourant.courant import GSection, random_section, verify_axioms
from hypercourant.endo import GEndo, is_orthogonal, mat_identity, mat_zero
from hypercourant.nijenhuis import check_connection_laws, check_identities, theorem_report
from hypercourant.parse import parse_scalar
from hypercourant.sampling import random_scalar, suite_rng
from hypercourant.structures import OMEGA_1, OMEGA_2

from oracle import (
    concomitant_linearity_defect,
    linearity_defect_formula,
    oracle_first_slot_defect,
)


def criterion(cid: str, budget_seconds: float):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                fn(*args, **kwargs)
                elapsed = time.perf_counter() - started
                assert elapsed < budget_seconds, (
                    f"budget exceeded: {elapsed:.1f}s > {budget_seconds}s"
                )
            except BaseException as exc:
                print(f"[criterion {cid}] FAIL  {type(exc).__name__}: {exc}")
                raise
            print(f"[criterion {cid}] PASS  ({elapsed:.1f}s, budget {budget_seconds:.0f}s)")

        return wrapper

    return decorate


@criterion("1 courant-axioms", 10)
def test_criterion_1_axiom_suite():
    for n in (1, 2, 3):
        reports = verify_axioms(n, degree=2, trials=20, seed=n)
        assert len(reports) == 140
        assert all(r.passed for r in reports), [
            (r.check_id, r.trial) for r in reports if not r.passed
        ]


@criterion("2 flat-quaternionic", 30)
def test_criterion_2_flat_structure(flat):
    assert flat.certified
    rep = theorem_report(flat, trials=10, seed=2)
    assert all(st.vanishes for st in rep.concomitants.values())
    assert rep.connections_agree
    assert all(rep.parallel.values())
    assert rep.torsion_formula
    assert rep.verdict == "hypercomplex" and rep.consistency == "ok"


@criterion("3 holomorphic-symplectic", 30)
def test_criterion_3_holomorphic_symplectic(holsymp):
    # the pinned data: omega_1 = dx1^dx3 - dx2^dx4, omega_2 = dx1^dx4 + dx2^dx3
    assert OMEGA_1[0][2] == 1 and OMEGA_1[1][3] == -1
    assert OMEGA_2[0][3] == 1 and OMEGA_2[1][2] == 1
    assert all(r.passed for r in holsymp.orthogonality)
    assert holsymp.quaternionic.passed
    rep = theorem_report(holsymp, trials=10, seed=3)
    assert rep.verdict == "hypercomplex" and rep.consistency == "ok"


@criterion("4 nonintegrable-conjugated", 60)
def test_criterion_4_nonintegrable(noni):
    assert noni.certified
    rep = theorem_report(noni, trials=10, seed=4)
    for key in ("JJ", "IJ"):
        status = rep.concomitants[key]
        assert not status.vanishes
        w = status.witness
        assert w is not None
        residual = parse_scalar(w.expression, 4)
        point = tuple(Fraction(v) for v in w.point)
        value = residual.evaluate(point)
        assert value == Fraction(w.value) and value != 0
    assert rep.consistency == "ok"
    assert rep.verdict == "not-hypercomplex"


@criterion("5 unconditional-identities", 60)
def test_criterion_5_identity_suites(all_triples):
    for name, hk in all_triples.items():
        for suite in (
            check_connection_laws(hk, trials=10, seed=5),
            check_identities(hk, trials=10, seed=5),
        ):
            failed = [r.check_id for r in suite if not r.passed]
            assert not failed, f"{name}: {failed}"


@criterion("6 concomitant-linearity", 30)
def test_criterion_6_concomitant_linearity(all_triples):
    rng = suite_rng(6, "acceptance-linearity")
    n = 2

    def rand_endo():
        def block():
            return tuple(
                tuple(random_scalar(rng, n, 1) for _ in range(n)) for _ in range(n)
            )

        return GEndo(block(), block(), block(), block())

    # second-slot linearity for five random pairs, non-orthogonal included
    saw_non_orthogonal = False
    for _ in range(5):
        f, g = rand_endo(), rand_endo()
        saw_non_orthogonal = saw_non_orthogonal or not is_orthogonal(f, "F").passed
        fun = random_scalar(rng, n, 1)
        x = random_section(rng, n, 1)
        y = random_section(rng, n, 1)
        _, second = concomitant_linearity_defect(f, g, fun, x, y)
        assert second.is_zero()
    assert saw_non_orthogonal

    # first-slot linearity for every pair drawn from each certified triple
    for hk in all_triples.values():
        rng4 = suite_rng(64, "acceptance-linearity-certified")
        fun = random_scalar(rng4, 4, 1)
        x = random_section(rng4, 4, 1)
        y = random_section(rng4, 4, 1)
        for f in (hk.i, hk.j, hk.k):
            for g in (hk.i, hk.j, hk.k):
                first, _ = concomitant_linearity_defect(f, g, fun, x, y)
                assert first.is_zero()

    # the first-slot defect on a fixed section X = d/dx1 + dx1 and f = x1,
    # matched on three routes: direct, closed formula and oracle
    fun = parse_scalar("x1", n)
    x = GSection.from_components(tuple(parse_scalar(t, n) for t in ("1", "0", "1", "0")))

    def first_slot_routes(f, g):
        first, _ = concomitant_linearity_defect(f, g, fun, x, x)
        return (
            first,
            linearity_defect_formula(f, g, fun, x, x),
            oracle_first_slot_defect(f, g, fun, x, x),
        )

    # identity pair: the eight terms of N cancel pairwise, so the defect is zero
    ident = GEndo.identity(n)
    zero = GSection.from_components(tuple(parse_scalar("0", n) for _ in range(4)))
    assert first_slot_routes(ident, ident) == (zero, zero, zero)

    # tangent/cotangent swap: orthogonal, but S^2 = +1 rather than -1, so the
    # defect survives; SX = X and <X,X> = 1 give 8 dx1 - 8 d/dx1
    swap = GEndo(mat_zero(n), mat_identity(n), mat_identity(n), mat_zero(n))
    assert is_orthogonal(swap, "F").passed
    expected = GSection.from_components(
        tuple(parse_scalar(t, n) for t in ("-8", "0", "8", "0"))
    )
    assert first_slot_routes(swap, swap) == (expected, expected, expected)


@criterion("7 mutation-detection", 10)
def test_criterion_7_mutation_detection(capsys, corrupted_bracket):
    code = main(["verify-axioms", "--dim", "2", "--trials", "3", "--seed", "1", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "fail"
    failing = [
        c
        for s in doc["suites"]
        for c in s["checks"]
        if c["check-id"] == "axiom-4-symmetric-part" and not c["pass"]
    ]
    assert failing
    w = failing[0]["witness"]
    residual = parse_scalar(w["expression"], 2)
    point = tuple(Fraction(v) for v in w["point"])
    assert residual.evaluate(point) == Fraction(w["value"]) != 0

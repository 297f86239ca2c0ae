import json
import re
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypercourant.cartan
import hypercourant.courant
import hypercourant.nijenhuis
from hypercourant import scalar
from hypercourant.cartan import _Components, check_fields
from hypercourant.courant import GSection, basis_sections, dorfman, random_section
from hypercourant.endo import GEndo, HKTriple
from hypercourant.errors import InconsistentEquivalence, UncertifiedStructure
from hypercourant.nijenhuis import (
    CONCOMITANT_KEYS,
    CONNECTION_SUITES,
    VARIANTS,
    check_connection_laws,
    check_identities,
    concomitant,
    concomitant_statuses,
    connection,
    delta,
    theorem_report,
    torsion,
    torsion_formula_residual,
    _all_but_images,
    _bracket,
    _inputs,
    _law_checks,
    _rotation,
    connection_pass,
)
from hypercourant.parse import parse_scalar
from hypercourant.report import CheckReport, Witness
from hypercourant.sampling import monomials_up_to, random_scalar, suite_rng
from hypercourant.scalar import SHARING, Polynomial, ScalarField, sharing
from hypercourant.structures import conjugated, frame_change

from oracle import (
    CLOSED_B,
    NON_CLOSED_B,
    b_field,
    concomitant_linearity_defect,
    family_statuses,
    linearity_defect_formula,
    loop_connection_laws,
    loop_delta_properties,
    loop_identities,
    loop_theorem_flags,
    nabla_endo,
    non_jacobian_conjugate,
    oracle_concomitant,
    oracle_first_slot_defect,
    product_triple,
    pullback_frame,
    spanning_family,
    triangular_frame,
)


MUTANT_GOLDEN = json.loads(Path(__file__).with_name("mutant_golden.json").read_text())


@pytest.fixture
def flipped_connection(monkeypatch):
    """Replace the connection with the mutant whose last inner term,
    QP[[Y, X]], enters with the wrong sign."""

    def flipped(hk, variant, x, y):
        p, q, r = _rotation(hk, variant)
        return connection(hk, variant, x, y) + r.apply(q.apply(p.apply(dorfman(y, x))))

    monkeypatch.setattr(hypercourant.nijenhuis, "connection", flipped)


def random_endo(rng, n, degree=1):
    def block():
        return tuple(
            tuple(random_scalar(rng, n, degree) for _ in range(n)) for _ in range(n)
        )

    return GEndo(block(), block(), block(), block())


class TestConcomitant:
    def test_identity_pair_vanishes(self):
        rng = suite_rng(0, "nij-id")
        n = 2
        ident = GEndo.identity(n)
        x = random_section(rng, n, 2)
        y = random_section(rng, n, 2)
        assert concomitant(ident, ident, x, y).is_zero()

    def test_flat_triple_vanishes(self, flat):
        rng = suite_rng(1, "nij-flat")
        x = random_section(rng, 4, 2)
        y = random_section(rng, 4, 2)
        assert concomitant(flat.i, flat.j, x, y).is_zero()

    def test_symmetric_in_endomorphisms(self, flat):
        rng = suite_rng(2, "nij-sym")
        n = 2
        f = random_endo(rng, n)
        g = random_endo(rng, n)
        x = random_section(rng, n, 1)
        y = random_section(rng, n, 1)
        assert (concomitant(f, g, x, y) - concomitant(g, f, x, y)).is_zero()
        rng = suite_rng(13, "wrapper")
        x = random_section(rng, 4, 1)
        y = random_section(rng, 4, 1)
        assert (concomitant(flat.i, flat.j, x, y) - concomitant(flat.j, flat.i, x, y)).is_zero()

    def test_at_most_seven_brackets_a_call(self, flat, monkeypatch):
        # in a caller's scope [[X, Y]] is shared by the two four-term halves
        calls = []

        def counted(s, t):
            calls.append((s, t))
            return dorfman(s, t)

        monkeypatch.setattr(hypercourant.nijenhuis, "dorfman", counted)
        rng = suite_rng(15, "nij-count")
        x = random_section(rng, 4, 1)
        y = random_section(rng, 4, 1)
        with sharing(_all_but_images):
            concomitant(flat.i, flat.j, x, y)
        assert 0 < len(calls) <= 7

    def test_matches_oracle_bracket_route(self, flat):
        rng = suite_rng(3, "nij-oracle")
        x = random_section(rng, 4, 1)
        y = random_section(rng, 4, 1)
        got = concomitant(flat.i, flat.j, x, y)
        ref = oracle_concomitant(flat.i, flat.j, x, y)
        assert (got - ref).is_zero()

    def test_nonintegrable_has_frame_witness(self, noni):
        # F = G = the conjugated J: some frame pair must expose a residual
        basis = basis_sections(4)
        found = None
        for a in range(8):
            for b in range(8):
                r = concomitant(noni.j, noni.j, basis[a], basis[b])
                if not r.is_zero():
                    found = r
                    break
            if found is not None:
                break
        assert found is not None
        from hypercourant.report import witness_for

        w = witness_for(found)
        residual = parse_scalar(w.expression, 4)
        point = tuple(Fraction(v) for v in w.point)
        assert residual.evaluate(point) == Fraction(w.value) != 0


class TestLinearityDefect:
    def test_second_slot_always_zero(self):
        rng = suite_rng(4, "lin2")
        n = 2
        for _ in range(3):
            f = random_endo(rng, n)
            g = random_endo(rng, n)
            fun = random_scalar(rng, n, 1)
            x = random_section(rng, n, 1)
            y = random_section(rng, n, 1)
            first, second = concomitant_linearity_defect(f, g, fun, x, y)
            assert second.is_zero()

    def test_first_slot_zero_on_certified_pairs(self, flat):
        rng = suite_rng(5, "lin1")
        members = (flat.i, flat.j, flat.k)
        fun = random_scalar(rng, 4, 1)
        x = random_section(rng, 4, 1)
        y = random_section(rng, 4, 1)
        for f in members:
            for g in members:
                first, _ = concomitant_linearity_defect(f, g, fun, x, y)
                assert first.is_zero()

    def test_identity_defect_is_zero_on_all_routes(self):
        # N for the identity pair vanishes identically (the eight terms
        # cancel), so its linearity defect is zero; direct evaluation, the
        # closed formula and the oracle expansion must all agree on that
        n = 2
        ident = GEndo.identity(n)
        fun = parse_scalar("x1", n)
        x = GSection.from_components(tuple(parse_scalar(t, n) for t in ("1", "0", "1", "0")))
        y = x
        first, second = concomitant_linearity_defect(ident, ident, fun, x, y)
        assert second.is_zero()
        assert first.is_zero()
        assert linearity_defect_formula(ident, ident, fun, x, y).is_zero()
        assert oracle_first_slot_defect(ident, ident, fun, x, y).is_zero()

    def test_swap_endo_defect_nonzero_and_matches_all_routes(self):
        # the tangent/cotangent swap is orthogonal but squares to +1, not -1, so
        # its first-slot defect is genuinely nonzero: -4 d/dx1 here
        n = 2
        from hypercourant.endo import mat_identity, mat_zero

        swap = GEndo(mat_zero(n), mat_identity(n), mat_identity(n), mat_zero(n))
        fun = parse_scalar("x1", n)
        x = GSection.from_components(tuple(parse_scalar(t, n) for t in ("1", "0", "0", "0")))
        first, second = concomitant_linearity_defect(swap, swap, fun, x, x)
        assert second.is_zero()
        expected = GSection.from_components(
            tuple(parse_scalar(t, n) for t in ("-4", "0", "0", "0"))
        )
        assert first == expected
        assert (first - linearity_defect_formula(swap, swap, fun, x, x)).is_zero()
        assert (first - oracle_first_slot_defect(swap, swap, fun, x, x)).is_zero()

    def test_formula_matches_brute_force_for_random_endos(self):
        rng = suite_rng(6, "lin-formula")
        n = 2
        for _ in range(2):
            f = random_endo(rng, n)
            g = random_endo(rng, n)
            fun = random_scalar(rng, n, 1)
            x = random_section(rng, n, 1)
            y = random_section(rng, n, 1)
            first, _ = concomitant_linearity_defect(f, g, fun, x, y)
            assert (first - linearity_defect_formula(f, g, fun, x, y)).is_zero()
            assert (first - oracle_first_slot_defect(f, g, fun, x, y)).is_zero()


class TestDelta:
    def test_constant_scalar_gives_zero(self, flat):
        rng = suite_rng(7, "delta0")
        x = random_section(rng, 4, 1)
        y = random_section(rng, 4, 1)
        assert delta(flat, ScalarField.const(4, 3), x, y).is_zero()

    def test_compatibility_and_symmetry(self, noni):
        reports = [r for r in check_identities(noni, trials=3, seed=2) if "delta" in r.check_id]
        assert len(reports) == 12 and all(r.passed for r in reports)

    def test_requires_certified(self):
        ident = GEndo.identity(2)
        bad = HKTriple.certify(ident, ident)
        with pytest.raises(UncertifiedStructure):
            delta(bad, ScalarField.one(2), None, None)


class TestConnection:
    def test_constant_sections_on_flat_triple(self, flat):
        e = basis_sections(4)
        for variant in VARIANTS:
            assert connection(flat, variant, e[0], e[5]).is_zero()

    def test_variants_agree_on_flat(self, flat):
        rng = suite_rng(8, "conn-agree")
        x = random_section(rng, 4, 1)
        y = random_section(rng, 4, 1)
        base = connection(flat, "ijk", x, y)
        assert (base - connection(flat, "jki", x, y)).is_zero()
        assert (base - connection(flat, "kij", x, y)).is_zero()

    def test_nabla_j_vanishes_even_nonintegrable(self, noni):
        rng = suite_rng(9, "nabla-j")
        x = random_section(rng, 4, 1)
        y = random_section(rng, 4, 1)
        assert nabla_endo(noni, "ijk", noni.j, x, y).is_zero()

    def test_nabla_i_concomitant_formula_nonintegrable(self, noni):
        rng = suite_rng(10, "nabla-i")
        half = ScalarField.const(4, Fraction(1, 2))
        x = random_section(rng, 4, 1)
        y = random_section(rng, 4, 1)
        lhs = nabla_endo(noni, "ijk", noni.i, x, y)
        rhs = noni.k.apply(concomitant(noni.i, noni.j, x, noni.i.apply(y))).smul(half)
        rhs = rhs + noni.j.apply(concomitant(noni.i, noni.j, x, y)).smul(half)
        assert (lhs - rhs).is_zero()

    def test_unknown_variant(self, flat):
        e = basis_sections(4)
        for variant in ("zzz", "xyz"):
            with pytest.raises(ValueError):
                connection(flat, variant, None, None)
            with pytest.raises(ValueError):
                torsion(flat, variant, e[0], e[1])
            with pytest.raises(ValueError):
                nabla_endo(flat, variant, flat.j, e[0], e[1])

    def test_requires_certified(self):
        ident = GEndo.identity(2)
        bad = HKTriple.certify(ident, ident)
        e = basis_sections(2)
        with pytest.raises(UncertifiedStructure):
            connection(bad, "ijk", None, None)
        with pytest.raises(UncertifiedStructure):
            torsion(bad, "ijk", e[0], e[1])
        with pytest.raises(UncertifiedStructure):
            nabla_endo(bad, "ijk", ident, e[0], e[1])

    def test_torsion_and_nabla_endo_agree_with_connection(self, flat):
        rng = suite_rng(14, "wrapper2")
        x = random_section(rng, 4, 1)
        y = random_section(rng, 4, 1)
        nab_xy = connection(flat, "ijk", x, y)
        t = nab_xy - connection(flat, "ijk", y, x) - (dorfman(x, y) - dorfman(y, x)).half()
        assert torsion(flat, "ijk", x, y) == t
        nab_j = connection(flat, "ijk", x, flat.j.apply(y)) - flat.j.apply(nab_xy)
        assert nabla_endo(flat, "ijk", flat.j, x, y) == nab_j
        assert nab_j.is_zero()


class TestTorsion:
    def test_antisymmetric(self, flat):
        rng = suite_rng(11, "torsion")
        x = random_section(rng, 4, 1)
        assert torsion(flat, "ijk", x, x).is_zero()

    def test_formula_on_flat(self, flat):
        rng = suite_rng(12, "torsion-f")
        x = random_section(rng, 4, 1)
        y = random_section(rng, 4, 1)
        assert torsion_formula_residual(flat, "ijk", x, y).is_zero()

    def test_constant_sections_both_sides_zero(self, flat):
        e = basis_sections(4)
        assert torsion(flat, "ijk", e[1], e[6]).is_zero()
        assert torsion_formula_residual(flat, "ijk", e[1], e[6]).is_zero()


class TestSuites:
    def test_connection_laws_all_structures(self, all_triples):
        for hk in all_triples.values():
            reports = check_connection_laws(hk, trials=2, seed=3)
            assert all(r.passed for r in reports)

    def test_connection_laws_all_variants_flat(self, flat):
        reports = check_connection_laws(flat, trials=2, seed=4)
        assert all(r.passed for r in reports)
        # grouped by variant, then by trial
        assert [(r.check_id, r.trial) for r in reports] == [
            (f"connection-law-{law}[{variant}]", t)
            for variant in VARIANTS
            for t in range(2)
            for law in ("tensorial", "leibniz-delta")
        ]

    def test_mutated_connection_fails_leibniz_law(self, flat, flipped_connection):
        reports = check_connection_laws(flat, trials=2, seed=5)
        leibniz = [r for r in reports if "leibniz-delta" in r.check_id]
        assert any(not r.passed for r in leibniz)
        bad = next(r for r in leibniz if not r.passed)
        assert bad.witness is not None

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_mutated_connection_matches_recorded_reports(self, flat, flipped_connection, variant):
        reports = check_connection_laws(flat, trials=2, seed=5)
        got = [r.to_dict() for r in reports if r.check_id.endswith(f"[{variant}]")]
        assert got == MUTANT_GOLDEN["connection-laws"]["reports"][variant]

    def test_mutated_connection_matches_recorded_identities(self, flat, flipped_connection):
        # most checks fail with witnesses that depend on the drawn sections,
        # so this pins the draw order of the identities suite
        reports = check_identities(flat, trials=2, seed=5)
        assert [r.to_dict() for r in reports] == MUTANT_GOLDEN["identities"]["reports"]

    def test_identities_all_structures(self, all_triples):
        for hk in all_triples.values():
            reports = check_identities(hk, trials=2, seed=6)
            assert all(r.passed for r in reports)
            ids = {r.check_id for r in reports}
            assert ids == {
                "nabla-j-vanishes",
                "nabla-i-concomitant-formula",
                "bracket-decomposition",
                "concomitant-skew",
                "delta-compat-i",
                "delta-compat-j",
                "delta-compat-k",
                "delta-symmetric-part",
            }


class TestTheoremReport:
    def test_flat_is_hypercomplex(self, flat):
        rep = theorem_report(flat, trials=3, seed=0)
        assert rep.verdict == "hypercomplex"
        assert rep.consistency == "ok"
        assert rep.connections_agree
        assert all(rep.parallel.values())
        assert rep.torsion_formula
        assert all(st.vanishes for st in rep.concomitants.values())

    def test_holomorphic_symplectic_is_hypercomplex(self, holsymp):
        rep = theorem_report(holsymp, trials=3, seed=0)
        assert rep.verdict == "hypercomplex"
        assert rep.consistency == "ok"

    def test_nonintegrable_pattern(self, noni):
        rep = theorem_report(noni, trials=3, seed=0)
        assert rep.verdict == "not-hypercomplex"
        assert rep.consistency == "ok"
        assert not rep.concomitants["IJ"].vanishes
        assert not rep.concomitants["JJ"].vanishes
        for key in ("IJ", "JJ"):
            w = rep.concomitants[key].witness
            assert w is not None
            residual = parse_scalar(w.expression, 4)
            point = tuple(Fraction(v) for v in w.point)
            assert residual.evaluate(point) == Fraction(w.value) != 0

    def test_denominators_in_two_variables(self, conjugated_x2x3, time_budget):
        # the gcds of these denominators once ran for minutes
        with time_budget(10):
            rep = theorem_report(conjugated_x2x3, trials=1, degree=1)
        assert rep.verdict == "not-hypercomplex"
        assert rep.parallel == {"I": False, "J": True, "K": False}
        assert not rep.connections_agree
        assert not rep.torsion_formula
        assert rep.consistency == "ok"

    def test_needs_a_trial(self, flat):
        with pytest.raises(ValueError):
            theorem_report(flat, trials=0)

    @pytest.mark.parametrize("name", ["flat", "holomorphic-symplectic", "nonintegrable"])
    def test_matches_recorded_report(self, all_triples, name):
        # recorded from the earlier three-loop implementation of the sampled
        # checks and the bracket-cached concomitant evaluation
        golden = json.loads(Path(__file__).with_name("theorem_golden.json").read_text())
        rep = theorem_report(all_triples[name], trials=2, seed=101)
        assert rep.to_dict() == golden[name]

    def test_frame_decides_like_spanning_family(self, noni):
        # the concomitants of a certified triple are bilinear over scalars,
        # so the frame pairs decide what the monomial-scaled family decides,
        # down to the first witness
        assert concomitant_statuses(noni) == family_statuses(noni, spanning_family(4, 1))

    def test_concomitant_statuses_share_brackets(self, flat, monkeypatch):
        # every concomitant vanishes on the flat triple, so all six visit all
        # (2n)^2 frame pairs; without sharing that is 7 brackets a pair
        calls = []

        def counted(s, t):
            calls.append((s, t))
            return dorfman(s, t)

        monkeypatch.setattr(hypercourant.nijenhuis, "dorfman", counted)
        status = concomitant_statuses(flat)
        assert all(s.vanishes for s in status.values())
        assert 0 < len(calls) <= 16 * (2 * flat.n) ** 2

    def test_operations_skip_the_entry_check(self, flat, monkeypatch):
        # values are checked where they enter; what the engine builds from
        # checked values is trusted
        rng = suite_rng(7, "entry-check")
        x, y = (random_section(rng, flat.n, 1) for _ in range(2))
        calls = []
        init = GSection.__init__

        def counted(entries, n):
            calls.append("entries")
            return check_fields(entries, n)

        def counted_section(section, vec, form):
            calls.append("section")
            init(section, vec, form)

        monkeypatch.setattr(hypercourant.cartan, "check_fields", counted)
        monkeypatch.setattr(GSection, "__init__", counted_section)
        dorfman(x, y)
        flat.i.apply(x)
        connection(flat, "ijk", x, y)
        concomitant_statuses(flat)
        assert calls == []
        # the counters see a public constructor
        GSection.from_components(x.components)
        assert calls == ["entries", "entries", "section"]

    @pytest.mark.parametrize(
        "suite",
        [
            lambda hk: check_connection_laws(hk, trials=1, degree=2),
            lambda hk: check_identities(hk, trials=1, degree=2),
            lambda hk: theorem_report(hk, trials=1, degree=2),
        ],
        ids=["connection-laws", "identities", "theorem"],
    )
    def test_scalar_core_runs_without_fraction_arithmetic(self, flat, suite, monkeypatch):
        # polynomials hold int coefficients over one denominator, so the
        # halves of the pairing and the connection cost no Fraction operation
        calls = []
        for name in (
            "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
            "__truediv__", "__rtruediv__", "__neg__",
        ):
            op = getattr(Fraction, name)

            def counted(*args, op=op):
                calls.append(op.__name__)
                return op(*args)

            monkeypatch.setattr(Fraction, name, counted)
        suite(flat)
        assert calls == []

    def test_sections_pass_zero_components_through(self, flat, monkeypatch):
        # section sums and differences hand a zero component's partner on
        # without a call into ScalarField
        inside, seen = [], []
        for name in ("__add__", "__sub__"):

            def flagged(a, b, op=getattr(_Components, name)):
                inside.append(True)
                try:
                    return op(a, b)
                finally:
                    inside.pop()

            def counted(a, b, op=getattr(ScalarField, name)):
                if inside:
                    seen.append(a.is_zero() or b.is_zero())
                return op(a, b)

            monkeypatch.setattr(_Components, name, flagged)
            monkeypatch.setattr(ScalarField, name, counted)
        check_connection_laws(flat, trials=1)
        assert seen and not any(seen)

    def test_forged_certification_raises_inconsistency(self):
        # identity triple with forged passing reports: all concomitants
        # vanish but the torsion formula cannot hold, which the engine must
        # refuse to accept silently
        ident = GEndo.identity(2)
        ok = CheckReport("forged", True)
        fake = HKTriple(ident, ident, ident, (ok, ok, ok), ok)
        with pytest.raises(InconsistentEquivalence) as exc:
            theorem_report(fake, trials=2, seed=0)
        assert exc.value.report is not None
        assert exc.value.report.consistency == "violated"

    def test_torsion_must_match_concomitant(self, noni, flipped_connection, monkeypatch):
        # N[I,J] != 0 here, so a torsion formula that holds contradicts the
        # proof even when the mutant leaves no endomorphism parallel
        monkeypatch.setattr(
            hypercourant.nijenhuis,
            "torsion_formula_residual",
            lambda hk, variant, x, y: GSection.zero(x.dim),
        )
        with pytest.raises(InconsistentEquivalence) as exc:
            theorem_report(noni, trials=2, seed=0)
        rep = exc.value.report
        assert rep.torsion_formula and not rep.concomitants["IJ"].vanishes
        assert not any(rep.parallel.values())
        assert rep.consistency == "violated"


# the degree 1 and 2 monomials of p_i in phi_i = x_i + p_i(x_{i+1}, .., x_4)
TRIANGULAR_MONOMIALS = [[(0,) * (i + 1) + m for m in monomials_up_to(3 - i, 2) if any(m)] for i in range(4)]


@st.composite
def triangular_polys(draw) -> list:
    """p_1..p_4 of a triangular automorphism phi, with coefficients in
    -3..3, not all zero; a constant term would not change D phi."""
    size = sum(map(len, TRIANGULAR_MONOMIALS))
    coeffs = iter(draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size).filter(any)))
    polys = []
    for monos in TRIANGULAR_MONOMIALS:
        terms = {m: c for m, c in zip(monos, coeffs) if c}
        polys.append(ScalarField.from_polynomial(Polynomial(4, terms)))
    return polys


def outcome(rep) -> tuple:
    """A report's vanishing pattern, verdict, consistency and flags."""
    pattern = {k: v.vanishes for k, v in rep.concomitants.items()}
    return pattern, rep.verdict, rep.consistency, rep.connections_agree, rep.parallel, rep.torsion_formula


def moved(w: Witness, n: int, second: bool = True) -> Witness:
    """A witness on an n-dimensional chart as a factor of a product with
    another n-dimensional factor gives it.  As the first factor, a form's
    frame index a >= n becomes a + n and the point search sets the second
    factor's zeros after the point.  As the second, frame index a < n (a
    vector) becomes a + n, a form's a + 2n, and coordinate x_k becomes
    x_{k+n}, which the point search sets after the first factor's zeros."""
    prefix, a, b, part, k = re.fullmatch(r"(.*)\((\d+), (\d+)\)\.(vec|form)\[(\d+)\]", w.label).groups()
    shift, zeros = (n if second else 0), ("0",) * n
    a, b = (int(i) + shift + (0 if int(i) < n else n) for i in (a, b))
    return Witness(
        label=f"{prefix}({a}, {b}).{part}[{int(k) + shift}]",
        expression=re.sub(r"x(\d+)", lambda m: f"x{int(m.group(1)) + shift}", w.expression),
        point=zeros + w.point if second else w.point + zeros,
        value=w.value,
    )


class TestBeyondTheExamples:
    """The theorem suite on triples built from the examples: pulled back
    along a fixed or a random triangular polynomial automorphism,
    conjugated by a frame that is no Jacobian's inverse or by e^B, and the
    n = 8 products of two examples."""

    @pytest.fixture(scope="class")
    def pulled_back(self, flat):
        return pullback_frame(flat)

    @pytest.fixture(scope="class")
    def reports(self, all_triples):
        """Each example's theorem report at trials 1, degree 1."""
        return {name: theorem_report(hk, trials=1, degree=1) for name, hk in all_triples.items()}

    def test_pullback_certifies_with_nonconstant_brackets(self, pulled_back):
        assert pulled_back.certified
        frame = basis_sections(pulled_back.n)
        members = pulled_back.members().values()
        brackets = [dorfman(f.apply(a), g.apply(b)) for f in members for g in members for a in frame for b in frame]
        assert (len(brackets), sum(not br.is_zero() for br in brackets)) == (576, 311)

    def test_pullback_stays_hypercomplex(self, pulled_back):
        # N[I,J] = 0 on nonzero brackets: the connections agree and I, J, K
        # are parallel
        rep = theorem_report(pulled_back, trials=1, degree=1)
        pattern = dict.fromkeys(CONCOMITANT_KEYS, True)
        assert outcome(rep) == (pattern, "hypercomplex", "ok", True, {"I": True, "J": True, "K": True}, True)

    @pytest.mark.parametrize("name", ["flat", "holomorphic-symplectic"])
    def test_non_jacobian_conjugate_is_not_integrable(self, all_triples, name):
        rep = theorem_report(non_jacobian_conjugate(all_triples[name]), trials=1, degree=1)
        pattern = dict.fromkeys(CONCOMITANT_KEYS, False)
        assert outcome(rep) == (pattern, "not-hypercomplex", "ok", False, {"I": False, "J": True, "K": False}, False)

    @pytest.mark.parametrize("name", ["flat", "holomorphic-symplectic", "nonintegrable"])
    def test_closed_b_field_keeps_the_outcome(self, all_triples, reports, name):
        # e^B for closed B is a Courant automorphism
        rep = theorem_report(conjugated(all_triples[name], *b_field(CLOSED_B)), trials=1, degree=1)
        assert outcome(rep) == outcome(reports[name])

    @pytest.mark.parametrize("name", ["flat", "nonintegrable"])
    def test_non_closed_b_field_keeps_these_outcomes(self, all_triples, reports, name):
        rep = theorem_report(conjugated(all_triples[name], *b_field(NON_CLOSED_B)), trials=1, degree=1)
        assert outcome(rep) == outcome(reports[name])

    def test_non_closed_b_field_breaks_holomorphic_symplectic(self, holsymp):
        # e^B for B = x1 dx2^dx3 keeps the pairing but not the bracket: only
        # N[J,J] vanishes, and the reported pattern is still consistent
        rep = theorem_report(conjugated(holsymp, *b_field(NON_CLOSED_B)), trials=1, degree=1)
        pattern = dict(dict.fromkeys(CONCOMITANT_KEYS, False), JJ=True)
        assert outcome(rep) == (pattern, "not-hypercomplex", "ok", False, {"I": False, "J": True, "K": False}, False)

    @pytest.mark.parametrize("name", ["flat", "holomorphic-symplectic"])
    @given(polys=triangular_polys())
    @settings(max_examples=2)
    def test_triangular_pullback_keeps_the_outcome(self, all_triples, reports, name, polys):
        # phi^* of a constant triple is the conjugate by P = diag(M, M^-T),
        # M = (D phi)^-1, a Courant automorphism
        pulled_back = conjugated(all_triples[name], *frame_change(*triangular_frame(polys)))
        assert pulled_back.certified
        rep = theorem_report(pulled_back, trials=1, degree=1)
        assert outcome(rep) == outcome(reports[name])

    def test_product_reports_like_its_nonintegrable_factor(self, all_triples, reports):
        # every pair has a nonintegrable factor, first or second
        pairs = [("flat", "nonintegrable"), ("nonintegrable", "flat"), ("holomorphic-symplectic", "nonintegrable")]
        for first, second in pairs:
            one, two = all_triples[first], all_triples[second]
            product = product_triple(one, two)
            assert product.n == 8 and product.certified
            rep = theorem_report(product, trials=1, degree=1)
            a, b = reports[first], reports[second]
            for key in CONCOMITANT_KEYS:
                status, sa, sb = rep.concomitants[key], a.concomitants[key], b.concomitants[key]
                assert status.vanishes == (sa.vanishes and sb.vanishes)
                if sa.witness is not None:
                    assert status.witness == moved(sa.witness, one.n, second=False)
                else:
                    assert status.witness == (sb.witness and moved(sb.witness, two.n))
            assert rep.connections_agree == (a.connections_agree and b.connections_agree)
            assert rep.parallel == {k: a.parallel[k] and b.parallel[k] for k in "IJK"}
            assert rep.torsion_formula == (a.torsion_formula and b.torsion_formula)
            both = a.verdict == b.verdict == "hypercomplex"
            assert rep.verdict == ("hypercomplex" if both else "not-hypercomplex")
            if (first, second) == ("flat", "nonintegrable"):
                w = rep.concomitants["JJ"].witness
                assert (w.label, w.point) == ("N[J,J] on family pair (4, 5).vec[5]", ("0",) * 4 + ("1", "0", "0", "0"))


def counted_brackets(monkeypatch) -> list:
    calls = []

    def counted(s, t):
        calls.append((s, t))
        return dorfman(s, t)

    monkeypatch.setattr(hypercourant.nijenhuis, "dorfman", counted)
    return calls


def input_scope(hk, monkeypatch):
    """The scope of the one input of a full pass at trials 1, filled by
    every suite of the pass: the one open when the laws start."""
    scopes = []
    direct = hypercourant.nijenhuis._law_checks

    def watched(*args):
        scopes.append(SHARING.get())
        return direct(*args)

    monkeypatch.setattr(hypercourant.nijenhuis, "_law_checks", watched)
    connection_pass(hk, CONNECTION_SUITES, 1, 0, 1)
    scope, = scopes
    return scope


class TestSharingScope:
    """One memo per suite input: brackets and derivatives (and, in
    concomitant_statuses, images) computed once inside it, and nothing left
    behind once the input is done."""

    def test_identities_share_brackets_within_an_input(self, flat, monkeypatch):
        # 38 brackets an input without sharing
        calls = counted_brackets(monkeypatch)
        check_identities(flat, trials=1, degree=1)
        assert 0 < len(calls) <= 24

    def test_connection_laws_compute_each_bracket_once(self, flat, monkeypatch):
        # 4 brackets for each of 3 connections of 3 variants, 36 in all;
        # [[Y,X]], [[Y,fX]] and [[fY,X]] recur in every variant, 30 distinct
        calls = counted_brackets(monkeypatch)
        check_connection_laws(flat, trials=1, degree=1)
        assert len(calls) == len(set(calls)) == 30

    def test_laws_share_the_scope_of_the_rest(self, flat, monkeypatch):
        calls = counted_brackets(monkeypatch)

        def brackets(suites):
            calls.clear()
            connection_pass(flat, suites, 1, 0, 1)
            return len(calls)

        laws, rest = brackets(("connection-laws",)), brackets(("identities", "theorem"))
        # the rest takes the 10 brackets of the three nabla_X Y from the laws
        assert brackets(CONNECTION_SUITES) == rest + 20 < laws + rest
        assert rest < brackets(("identities",)) + brackets(("theorem",))

    def test_laws_hold_only_the_brackets_the_rotations_share(self, flat, monkeypatch):
        (t, x, y, fun), = _inputs(flat, 0, 1, 1)
        fx, fy = x.smul(fun), y.smul(fun)
        unscaled = set()
        for v in VARIANTS:
            p, q, _ = _rotation(flat, v)
            px, qy = p.apply(x), q.apply(y)
            unscaled |= {(qy, px), (y, px), (qy, x), (y, x)}
        nested = set()

        def watched(hk, variant, a, b):
            out = connection(hk, variant, a, b)
            scope = SHARING.get()
            if scope is not outer:
                nested.update(key[1:] for key in dict.keys(scope) if key[0] is dorfman)
            return out

        monkeypatch.setattr(hypercourant.nijenhuis, "connection", watched)
        with sharing(_all_but_images) as outer:
            _law_checks(flat, t, x, y, fun, {v: [] for v in VARIANTS})
            held = {key[1:] for key in outer if key[0] is dorfman}
        # the input's scope keeps the 10 brackets of the three nabla_X Y
        assert len(unscaled) == 10 and held == unscaled
        # the f-scaled connections held [[Y,fX]] and [[fY,X]] alone, and
        # only until the laws ended
        assert nested == {(y, fx), (fy, x)}

    def test_torsion_takes_its_brackets_from_the_scope(self, flat, monkeypatch):
        # the skew bracket once went through courant.dorfman, 2 calls an input
        calls = []
        direct = hypercourant.courant.dorfman

        def counted(s, t):
            calls.append((s, t))
            return direct(s, t)

        monkeypatch.setattr(hypercourant.courant, "dorfman", counted)
        theorem_report(flat, trials=1, degree=1)
        assert calls == []

    def test_frame_images_are_columns(self, flat, monkeypatch):
        frame = set(basis_sections(flat.n))
        images = []
        apply = GEndo.apply

        def counted(f, s):
            images.append(s)
            return apply(f, s)

        monkeypatch.setattr(GEndo, "apply", counted)
        concomitant_statuses(flat)
        assert images and not frame.intersection(images)
        assert flat.i.columns() == tuple(flat.i.apply(e) for e in basis_sections(flat.n))

    def test_input_scope_keys_brackets_and_derivatives(self, flat, monkeypatch):
        scope = input_scope(flat, monkeypatch)
        assert all(type(key) is tuple and len(key) == 3 for key in scope)
        # every bracket and derivative, and no endomorphism image
        assert {key[0] for key in scope} == {hypercourant.nijenhuis.dorfman, ScalarField._derivative}

    def test_input_scope_keys_gcds_on_a_rational_triple(self, noni, monkeypatch):
        # flat's fields are polynomials and take no gcd; noni's take many,
        # and the input's scope holds them with its brackets and derivatives
        scope = input_scope(noni, monkeypatch)
        assert all(type(key) is tuple and len(key) == 3 for key in scope)
        kinds = {hypercourant.nijenhuis.dorfman, ScalarField._derivative, scalar._gcd_int}
        assert {key[0] for key in scope} == kinds

    def test_nested_scope_reads_its_outer_and_holds_what_keep_admits(self, flat):
        (_, x, y, _), = _inputs(flat, 0, 1, 1)
        f, g = x.components[0], y.components[0]
        with sharing(_all_but_images) as outer:
            first = f.derivative(0)
            with sharing(lambda key: key[0] is dorfman) as inner:
                assert SHARING.get() is inner and inner.outer is outer
                assert f.derivative(0) is first
                g.derivative(1)
                bracket = _bracket(x, y)
                assert _bracket(x, y) is bracket
            assert SHARING.get() is outer
        assert dict(inner) == {(dorfman, x, y): bracket}
        assert set(outer) == {(ScalarField._derivative, f, 0)}

    def test_statuses_scope_is_seeded_with_frame_columns(self, flat, monkeypatch):
        scopes = []
        direct = hypercourant.nijenhuis.concomitant

        def watched(*args):
            scopes.append(SHARING.get())
            return direct(*args)

        monkeypatch.setattr(hypercourant.nijenhuis, "concomitant", watched)
        concomitant_statuses(flat)
        scope = scopes[0]
        assert all(s is scope for s in scopes) and scope.outer is None
        for f in flat.members().values():
            for e, column in zip(basis_sections(flat.n), f.columns()):
                assert scope[GEndo.apply, f, e] == column

    def test_derivatives_are_shared_only_inside_a_scope(self):
        f = ScalarField.from_polynomial(parse_scalar("x1^3*x2 - x2", 2).num)
        assert f.derivative(0) is not f.derivative(0)
        with sharing(_all_but_images):
            first = f.derivative(0)
            with sharing(_all_but_images):  # a nested scope reads the open one
                assert f.derivative(0) is first
        assert SHARING.get() is None
        assert f.derivative(0) == first

    def test_scope_closes_after_each_suite(self, flat):
        check_identities(flat, trials=1, degree=1)
        assert SHARING.get() is None
        check_connection_laws(flat, trials=1, degree=1)
        assert SHARING.get() is None
        theorem_report(flat, trials=1, degree=1)
        assert SHARING.get() is None
        concomitant(flat.i, flat.j, *basis_sections(flat.n)[:2])
        assert SHARING.get() is None

    def test_scope_closes_when_a_suite_raises(self, flat, monkeypatch):
        ident = GEndo.identity(2)
        ok = CheckReport("forged", True)
        fake = HKTriple(ident, ident, ident, (ok, ok, ok), ok)
        with pytest.raises(InconsistentEquivalence):
            theorem_report(fake, trials=2, seed=0)
        assert SHARING.get() is None

        def broken(s, t):
            raise ArithmeticError("broken bracket")

        monkeypatch.setattr(hypercourant.nijenhuis, "dorfman", broken)
        with pytest.raises(ArithmeticError):
            check_identities(flat, trials=1, degree=1)
        assert SHARING.get() is None

        # the 11th bracket of the laws is the first of an f-scaled
        # connection, in the scope nested in the input's
        calls, scopes = [], []

        def broken_when_scaled(s, t):
            calls.append((s, t))
            if len(calls) > 10:
                scopes.append(SHARING.get())
                raise ArithmeticError("broken bracket")
            return dorfman(s, t)

        monkeypatch.setattr(hypercourant.nijenhuis, "dorfman", broken_when_scaled)
        with pytest.raises(ArithmeticError):
            check_connection_laws(flat, trials=1, degree=1)
        assert SHARING.get() is None
        calls.clear()
        with sharing(_all_but_images) as outer:  # the pass nests in an open scope
            with pytest.raises(ArithmeticError):
                check_connection_laws(flat, trials=1, degree=1)
            assert SHARING.get() is outer
        assert scopes[1].outer.outer is outer
        assert SHARING.get() is None

    def test_threads_keep_their_own_scope(self, flat, noni):
        # more threads than cores, switching often, so the suites interleave
        def reports(hk):
            suites = ("connection-laws", "identities")
            results = connection_pass(hk, suites, 2, 3, 1)[0]
            return [r.to_dict() for suite in suites for r in results[suite]]

        jobs = [("flat", flat), ("noni", noni)] * 2
        expected = {name: reports(hk) for name, hk in jobs}
        got = [None] * len(jobs)

        def worker(i):
            got[i] = reports(jobs[i][1])

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(jobs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [expected[name] for name, _ in jobs]

    def test_scope_is_context_local(self):
        seen = []
        with sharing(_all_but_images):
            thread = threading.Thread(target=lambda: seen.append(SHARING.get()))
            thread.start()
            thread.join()
            assert SHARING.get() is not None
        assert seen == [None]


class TestConnectionPass:
    """One pass over shared inputs against the four sampling loops it
    replaced (tests/oracle.py)."""

    @staticmethod
    def assert_matches_loops(hk, trials=2, seed=5, degree=1):
        results, _ = connection_pass(hk, CONNECTION_SUITES, trials, seed, degree)
        inputs = _inputs(hk, seed, trials, degree)
        laws = [r for v in VARIANTS for r in loop_connection_laws(hk, v, inputs)]
        identities = loop_identities(hk, inputs) + loop_delta_properties(hk, inputs)
        assert [r.to_dict() for r in results["connection-laws"]] == [r.to_dict() for r in laws]
        assert [r.to_dict() for r in results["identities"]] == [r.to_dict() for r in identities]
        rep = results["theorem"]
        flags = (rep.connections_agree, rep.parallel, rep.torsion_formula)
        assert flags == loop_theorem_flags(hk, inputs)
        assert rep.concomitants == concomitant_statuses(hk)
        return results

    @pytest.mark.parametrize("name", ["flat", "holomorphic-symplectic", "nonintegrable"])
    def test_matches_the_suite_loops(self, all_triples, name):
        self.assert_matches_loops(all_triples[name])

    def test_matches_the_suite_loops_with_two_variable_denominators(self, conjugated_x2x3):
        self.assert_matches_loops(conjugated_x2x3, trials=1)

    def test_matches_the_suite_loops_under_a_mutant(self, flat, flipped_connection):
        results = self.assert_matches_loops(flat)
        # the mutant fails checks with witnesses, so the comparison above
        # covered witnesses too
        assert any(r.witness is not None for r in results["connection-laws"])
        assert any(r.witness is not None for r in results["identities"])

    @pytest.mark.parametrize("name", ["flat", "nonintegrable"])
    def test_selection_never_moves_the_draws(self, all_triples, flipped_connection, name):
        hk = all_triples[name]
        every, seconds = connection_pass(hk, CONNECTION_SUITES, 2, 7, 1)
        assert set(seconds) == set(CONNECTION_SUITES)
        for suite in CONNECTION_SUITES:
            alone, alone_seconds = connection_pass(hk, (suite,), 2, 7, 1)
            assert set(alone) == set(alone_seconds) == {suite}
            if suite == "theorem":
                assert alone[suite].to_dict() == every[suite].to_dict()
            else:
                assert [r.to_dict() for r in alone[suite]] == [r.to_dict() for r in every[suite]]

    def test_uncertified_triple_draws_no_inputs(self, monkeypatch):
        ident = GEndo.identity(2)
        bad = HKTriple.certify(ident, ident)
        monkeypatch.setattr(hypercourant.nijenhuis, "random_section", None)
        with pytest.raises(UncertifiedStructure):
            connection_pass(bad, CONNECTION_SUITES, 2, 0, 1)

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercourant.cartan import OneForm, VectorField
from hypercourant.courant import (
    AXIOM_IDS,
    GSection,
    anchor,
    anchor_apply,
    basis_sections,
    courant_bracket,
    d_map,
    dorfman,
    pairing,
    random_section,
    verify_axioms,
)
from hypercourant.errors import DimensionMismatch, IndexOutOfRange
from hypercourant.parse import parse_scalar
from hypercourant.sampling import random_scalar, suite_rng
from hypercourant.scalar import ScalarField, shared, sharing

from oracle import (
    halves_add,
    halves_neg,
    halves_pairing,
    halves_smul,
    halves_sub,
    leibniz_dorfman,
)


def gs(n, *texts):
    return GSection.from_components(tuple(parse_scalar(t, n) for t in texts))


class TestAnchorAndPairing:
    def test_anchor_projects(self):
        s = gs(2, "1", "0", "0", "x1")
        assert anchor(s) == s.vec
        assert anchor(s).components[0] == ScalarField.one(2)

    def test_anchor_of_pure_form_is_zero(self):
        assert anchor(gs(2, "0", "0", "x1", "x2")).is_zero()

    def test_anchor_kills_d(self):
        f = parse_scalar("x1^2*x2", 2)
        assert anchor(d_map(f)).is_zero()

    def test_pairing_frozen_values(self):
        n = 2
        s = gs(n, "1", "0", "1", "0")  # d1 + dx1
        assert pairing(s, s) == ScalarField.one(n)
        assert pairing(gs(n, "1", "0", "0", "0"), gs(n, "0", "0", "1", "0")) == ScalarField.const(
            n, "1/2"
        )
        assert pairing(gs(n, "1", "0", "0", "0"), gs(n, "0", "1", "0", "0")).is_zero()

    def test_gram_matrix(self):
        n = 3
        basis = basis_sections(n)
        half = ScalarField.const(n, "1/2")
        for a in range(2 * n):
            for b in range(2 * n):
                expected = half if abs(a - b) == n else ScalarField.zero(n)
                assert pairing(basis[a], basis[b]) == expected

    def test_pairing_symmetric(self):
        rng = suite_rng(3, "pair")
        s = random_section(rng, 2, 2)
        t = random_section(rng, 2, 2)
        assert pairing(s, t) == pairing(t, s)


class TestDMap:
    def test_d_of_square(self):
        assert d_map(parse_scalar("x1^2", 2)) == gs(2, "0", "0", "2*x1", "0")

    def test_d_of_constant(self):
        assert d_map(parse_scalar("5", 2)).is_zero()

    def test_defining_property(self):
        # <Df, s> = rho(s) f / 2 for random s
        rng = suite_rng(4, "dmap")
        n = 2
        f = random_scalar(rng, n, 3)
        s = random_section(rng, n, 2)
        lhs = pairing(d_map(f), s)
        rhs = anchor_apply(s, f) * ScalarField.const(n, "1/2")
        assert lhs == rhs

    def test_frozen_example(self):
        got = pairing(d_map(parse_scalar("x1*x2", 2)), gs(2, "1", "0", "0", "0"))
        assert got == parse_scalar("1/2*x2", 2)


class TestDorfman:
    def test_reduces_to_lie_derivative(self):
        assert dorfman(gs(2, "1", "0", "0", "0"), gs(2, "0", "0", "0", "x1")) == gs(
            2, "0", "0", "0", "1"
        )

    def test_interior_product_term(self):
        assert dorfman(gs(2, "0", "0", "x2", "0"), gs(2, "1", "0", "0", "0")) == gs(
            2, "0", "0", "0", "1"
        )

    def test_self_bracket_is_d_of_norm(self):
        s = gs(2, "1", "0", "x1", "0")
        assert dorfman(s, s) == gs(2, "0", "0", "1", "0")
        assert dorfman(s, s) == d_map(pairing(s, s))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            dorfman(gs(1, "1", "0"), gs(2, "1", "0", "0", "0"))

    def test_matches_leibniz_oracle(self):
        # the independent expansion and the closed formula must agree,
        # component by component
        rng = suite_rng(5, "oracle")
        for n in (1, 2, 3):
            for _ in range(4):
                s = random_section(rng, n, 2)
                t = random_section(rng, n, 2)
                got = dorfman(s, t)
                expected = leibniz_dorfman(s, t)
                for mine, ref in zip(got.components, expected.components):
                    assert mine == ref


class TestCourantBracket:
    def test_antisymmetry_on_self(self):
        rng = suite_rng(6, "skew")
        s = random_section(rng, 2, 2)
        assert courant_bracket(s, s).is_zero()

    def test_constant_commuting_sections(self):
        assert courant_bracket(gs(2, "1", "0", "0", "0"), gs(2, "0", "1", "0", "0")).is_zero()

    def test_decomposition(self):
        rng = suite_rng(6, "decomp")
        for _ in range(4):
            s = random_section(rng, 2, 2)
            t = random_section(rng, 2, 2)
            residual = dorfman(s, t) - courant_bracket(s, t) - d_map(pairing(s, t))
            assert residual.is_zero()


class TestVerifyAxioms:
    def test_all_pass_small(self):
        reports = verify_axioms(1, degree=2, trials=10, seed=1)
        assert len(reports) == 70
        assert all(r.passed for r in reports)

    def test_all_pass_dim2(self):
        reports = verify_axioms(2, degree=2, trials=5, seed=42)
        assert all(r.passed for r in reports)

    def test_deterministic(self):
        a = verify_axioms(2, degree=1, trials=3, seed=9)
        b = verify_axioms(2, degree=1, trials=3, seed=9)
        assert [(r.check_id, r.trial, r.passed) for r in a] == [
            (r.check_id, r.trial, r.passed) for r in b
        ]

    def test_corrupted_bracket_fails_axiom_4_with_witness(self):
        reports = verify_axioms(2, degree=2, trials=3, seed=1, _corrupt_bracket=True)
        failed = [r for r in reports if r.check_id == AXIOM_IDS[3] and not r.passed]
        assert failed
        w = failed[0].witness
        assert w is not None
        residual = parse_scalar(w.expression, 2)
        point = tuple(Fraction(v) for v in w.point)
        value = residual.evaluate(point)
        assert value == Fraction(w.value) and value != 0

    def test_invalid_dimension(self):
        with pytest.raises(DimensionMismatch):
            verify_axioms(0)


def test_section_algebra_dimension_checks():
    with pytest.raises(DimensionMismatch):
        GSection(VectorField.zero(2), OneForm.zero(3))
    with pytest.raises(DimensionMismatch):
        GSection.from_components((ScalarField.zero(1),) * 3)


def test_section_constructor_rejects_swapped_parts():
    # the parts are typed: a 1-form as the vector part is not a section
    for vec, form in (
        (OneForm.basis(2, 0), VectorField.zero(2)),
        (OneForm.zero(2), OneForm.zero(2)),
        (VectorField.zero(2), VectorField.zero(2)),
        (GSection.zero(2), OneForm.zero(2)),
    ):
        with pytest.raises(TypeError):
            GSection(vec, form)
    assert GSection(VectorField.basis(2, 0), OneForm.zero(2)) == basis_sections(2)[0]


def test_equal_components_make_equal_sections_with_equal_hashes():
    s, t = gs(2, "x1", "0", "1/2", "x2^2"), gs(2, "x1", "0", "1/2", "x2^2")
    assert s is not t and s == t and hash(s) == hash(t)
    built = GSection._of(s.components) + GSection.zero(2)  # through _of
    assert built == s and hash(built) == hash(s)
    assert s != gs(2, "x1", "0", "1/2", "x2")


def test_a_scope_serves_the_bracket_of_an_equal_section():
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return dorfman(a, b)

    t = gs(2, "x2", "1", "x1", "0")
    with sharing(lambda key: True):
        first = shared(counted, gs(2, "x1*x2", "0", "1", "x1"), t)
        again = shared(counted, gs(2, "x1*x2", "0", "1", "x1"), t)
    assert again is first and len(calls) == 1


def test_section_sums_reject_other_charts():
    # zero components pass their partners through, so a zero section over
    # one chart must still refuse a section over another
    for a, b in ((GSection.zero(3), basis_sections(2)[0]), (GSection.zero(2), basis_sections(3)[4])):
        for x, y in ((a, b), (b, a)):
            with pytest.raises(DimensionMismatch):
                x + y
            with pytest.raises(DimensionMismatch):
                x - y


@st.composite
def sections(draw, n):
    """A random section of degree <= 2, or a frame section e_a."""
    if draw(st.booleans()):
        return basis_sections(n)[draw(st.integers(0, 2 * n - 1))]
    return random_section(Random(draw(st.integers(0, 2**32))), n, draw(st.integers(0, 2)))


class TestSectionRepresentation:
    """A section is one tuple of its 2n components; its arithmetic and its
    pairing equal the formulas on the vector and form halves."""

    @given(data=st.data())
    @settings(max_examples=100)
    def test_operations_match_the_halves(self, data):
        n = data.draw(st.integers(1, 3))
        x, y = data.draw(sections(n)), data.draw(sections(n))
        f = random_scalar(Random(data.draw(st.integers(0, 2**32))), n, data.draw(st.integers(0, 2)))
        cases = [
            (x + y, halves_add(x, y)),
            (x - y, halves_sub(x, y)),
            (-x, halves_neg(x)),
            (x.smul(f), halves_smul(x, f)),
        ]
        for got, expected in cases:
            assert type(got) is GSection and len(got.components) == 2 * n
            assert got == expected and hash(got) == hash(expected)
        assert pairing(x, y) == halves_pairing(x, y) == pairing(y, x)
        assert x.vec.components + x.form.components == x.components

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_sections_hold_2n_components(self, n):
        assert len(GSection.zero(n).components) == 2 * n
        assert GSection.zero(n) == GSection(VectorField.zero(n), OneForm.zero(n))
        frame = basis_sections(n)
        assert len(frame) == 2 * n
        for a, e in enumerate(frame):
            assert len(e.components) == 2 * n and e.dim == n
            assert e == GSection.from_components(ScalarField.const(n, int(k == a)) for k in range(2 * n))
        for index in (-1, 2 * n):
            with pytest.raises(IndexOutOfRange):
                GSection.basis(n, index)

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypercourant.scalar
from hypercourant.cartan import (
    OneForm,
    TwoForm,
    VectorField,
    exterior_derivative,
    interior_product,
    lie_bracket,
    lie_derivative,
)
from hypercourant.endo import mat_zero
from hypercourant.errors import DimensionMismatch, IndexOutOfRange, NotAntisymmetric
from hypercourant.parse import parse_scalar
from hypercourant.sampling import random_scalar, suite_rng
from hypercourant.scalar import ScalarField

from hypercourant.courant import GSection, dorfman
from oracle import (
    componentwise_dorfman,
    componentwise_interior_product,
    componentwise_lie_bracket,
    componentwise_lie_derivative,
    pair_form_vector,
)


def vf(n, *texts):
    return VectorField(tuple(parse_scalar(t, n) for t in texts))


def of(n, *texts):
    return OneForm(tuple(parse_scalar(t, n) for t in texts))


def random_vf(rng, n, degree=2):
    return VectorField(tuple(random_scalar(rng, n, degree) for _ in range(n)))


def random_of(rng, n, degree=2):
    return OneForm(tuple(random_scalar(rng, n, degree) for _ in range(n)))


class TestLieBracket:
    def test_antisymmetry_on_self(self):
        x = vf(2, "x1*x2", "x1^2")
        assert lie_bracket(x, x).is_zero()

    def test_coordinate_formula(self):
        # [x2 d1, d2] = -d1
        assert lie_bracket(vf(2, "x2", "0"), vf(2, "0", "1")) == vf(2, "-1", "0")

    def test_hand_expanded_example(self):
        # [x1 d1, x1 x2 d2] = x1 x2 d2
        assert lie_bracket(vf(2, "x1", "0"), vf(2, "0", "x1*x2")) == vf(2, "0", "x1*x2")

    def test_jacobi_identity(self):
        rng = suite_rng(2024, "jacobi")
        for n in (1, 2, 3):
            for _ in range(3):
                x, y, z = (random_vf(rng, n) for _ in range(3))
                residual = (
                    lie_bracket(x, lie_bracket(y, z))
                    + lie_bracket(y, lie_bracket(z, x))
                    + lie_bracket(z, lie_bracket(x, y))
                )
                assert residual.is_zero()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            lie_bracket(vf(1, "x1"), vf(2, "x1", "0"))


class TestExteriorDerivative:
    def test_scalar_product_rule(self):
        assert exterior_derivative(parse_scalar("x1*x2", 2)) == of(2, "x2", "x1")

    def test_oneform(self):
        d = exterior_derivative(of(2, "0", "x1"))
        assert d.entries[0][1] == ScalarField.one(2)
        assert d.entries[1][0] == ScalarField.const(2, -1)

    def test_dd_is_zero(self):
        rng = suite_rng(9, "ddzero")
        for n in (1, 2, 3):
            f = random_scalar(rng, n, 3)
            assert exterior_derivative(exterior_derivative(f)) == TwoForm(mat_zero(n))

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            exterior_derivative(vf(1, "x1"))


class TestLieDerivative:
    def test_one_step_formula(self):
        assert lie_derivative(vf(2, "1", "0"), of(2, "0", "x1")) == of(2, "0", "1")

    def test_zero_form(self):
        assert lie_derivative(vf(2, "x1^2", "x2"), OneForm.zero(2)).is_zero()

    def test_hand_expansion(self):
        # L_{x1 d1} dx1 = dx1
        assert lie_derivative(vf(2, "x1", "0"), of(2, "1", "0")) == of(2, "1", "0")

    def test_cartan_magic_formula(self):
        rng = suite_rng(7, "magic")
        for n in (2, 3):
            for _ in range(3):
                x = random_vf(rng, n)
                eta = random_of(rng, n)
                lhs = lie_derivative(x, eta)
                rhs = interior_product(x, exterior_derivative(eta)) + exterior_derivative(
                    pair_form_vector(eta, x)
                )
                assert (lhs - rhs).is_zero()

    def test_naturality(self):
        rng = suite_rng(8, "naturality")
        n = 2
        x = random_vf(rng, n)
        eta = random_of(rng, n)
        f = random_scalar(rng, n, 2)
        xf = sum(
            (x.components[i] * f.derivative(i) for i in range(n)),
            ScalarField.zero(n),
        )
        lhs = lie_derivative(x, eta.smul(f))
        rhs = eta.smul(xf) + lie_derivative(x, eta).smul(f)
        assert (lhs - rhs).is_zero()


class TestInteriorProduct:
    def test_duality(self):
        omega = exterior_derivative(of(2, "0", "x1"))  # dx1 ^ dx2
        assert interior_product(vf(2, "1", "0"), omega) == of(2, "0", "1")

    def test_zero(self):
        assert interior_product(vf(2, "x1", "x2"), TwoForm(mat_zero(2))).is_zero()

    def test_double_contraction_vanishes(self):
        rng = suite_rng(11, "ii")
        n = 3
        y = random_vf(rng, n)
        omega = exterior_derivative(random_of(rng, n))
        contracted = interior_product(y, omega)
        assert pair_form_vector(contracted, y).is_zero()


class TestPairing:
    def test_duality(self):
        assert pair_form_vector(of(2, "1", "0"), vf(2, "1", "0")) == ScalarField.one(2)
        assert pair_form_vector(of(2, "1", "0"), vf(2, "0", "1")).is_zero()

    def test_bilinearity(self):
        assert pair_form_vector(of(2, "x2", "0"), vf(2, "x1", "0")) == parse_scalar(
            "x1*x2", 2
        )


class TestTwoFormValidation:
    def test_rejects_nonantisymmetric(self):
        one = ScalarField.one(2)
        zero = ScalarField.zero(2)
        with pytest.raises(NotAntisymmetric):
            TwoForm(((zero, one), (one, zero)))

    def test_rejects_nonzero_diagonal(self):
        one = ScalarField.one(2)
        zero = ScalarField.zero(2)
        with pytest.raises(NotAntisymmetric):
            TwoForm(((one, zero), (zero, zero)))

    def test_rejects_wrong_shape(self):
        zero = ScalarField.zero(2)
        with pytest.raises(DimensionMismatch):
            TwoForm(((zero,),))
        with pytest.raises(DimensionMismatch):
            TwoForm(((zero, 0), (0, zero)))


class TestComponentValidation:
    @pytest.mark.parametrize("cls", [VectorField, OneForm])
    @pytest.mark.parametrize(
        "components",
        [
            (),
            (ScalarField.zero(2),) * 3,
            (ScalarField.zero(2), ScalarField.zero(3)),
            (ScalarField.zero(2), 0),
        ],
        ids=["empty", "wrong-count", "other-chart", "not-a-field"],
    )
    def test_constructor_rejects(self, cls, components):
        with pytest.raises(DimensionMismatch):
            cls(components)

    @pytest.mark.parametrize("cls", [VectorField, OneForm])
    @pytest.mark.parametrize("index", [-1, 2, 5])
    def test_basis_rejects_index_out_of_range(self, cls, index):
        with pytest.raises(IndexOutOfRange):
            cls.basis(2, index)

    def test_arithmetic_rejects_mixed_types(self):
        x, dx = VectorField.basis(2, 0), OneForm.basis(2, 1)
        for a, b in ((x, dx), (dx, x)):
            with pytest.raises(TypeError):
                a + b
            with pytest.raises(TypeError):
                a - b
        assert type(x + x) is VectorField and type(dx - dx) is OneForm

    @pytest.mark.parametrize("cls", [VectorField, OneForm])
    def test_arithmetic_rejects_other_charts(self, cls):
        # a zero component passes its partner through, so the chart is
        # compared per section, not left to the ScalarField operators
        for a, b in ((cls.zero(3), cls.basis(2, 0)), (cls.zero(2), cls.basis(3, 0)), (cls.basis(2, 1), cls.basis(3, 2))):
            for x, y in ((a, b), (b, a)):
                with pytest.raises(DimensionMismatch):
                    x + y
                with pytest.raises(DimensionMismatch):
                    x - y
        for f in (ScalarField.zero(3), ScalarField.one(3)):
            for x in (cls.zero(2), cls.basis(2, 0)):
                with pytest.raises(DimensionMismatch):
                    x.smul(f)


class TestValueSemantics:
    def test_a_vector_field_never_equals_a_one_form(self):
        c = (parse_scalar("x1", 2), ScalarField.one(2))
        assert VectorField(c) == VectorField(c) and OneForm(c) == OneForm(c)
        assert VectorField(c) != OneForm(c) and OneForm(c) != VectorField(c)

    def test_equal_two_forms_hash_equal(self):
        def build():
            x, z = parse_scalar("x1*x2 + 1/3", 2), ScalarField.zero(2)
            return TwoForm(((z, x), (-x, z)))

        a, b = build(), build()
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != TwoForm(mat_zero(2))


@st.composite
def sparse_components(draw, n):
    """n components: a frame section e_a, a scaled one x_k e_a, or each
    component zero with probability 1/2 and otherwise a random polynomial,
    divided by 1 + x_j^2 half of the time.  Every zero is the shared one."""
    zero, one = ScalarField.zero(n), ScalarField.one(n)
    shape = draw(st.sampled_from(["frame", "scaled", "sparse"]))
    if shape != "sparse":
        a = draw(st.integers(0, n - 1))
        entry = one if shape == "frame" else ScalarField.coordinate(n, draw(st.integers(0, n - 1)))
        return tuple(entry if i == a else zero for i in range(n))
    rng = Random(draw(st.integers(0, 2**32)))
    out = []
    for _ in range(n):
        f = zero
        if draw(st.booleans()):
            f = random_scalar(rng, n, draw(st.integers(0, 2)))
            if draw(st.booleans()):
                f = f / (one + ScalarField.coordinate(n, draw(st.integers(0, n - 1))) ** 2)
        out.append(f if not f.is_zero() else zero)
    return tuple(out)


class TestSparseComponents:
    """Section arithmetic passes zero components through without calling
    into ScalarField; the results must be the componentwise fold."""

    @given(data=st.data())
    @settings(max_examples=150)
    def test_operations_match_the_componentwise_fold(self, data):
        n = data.draw(st.integers(1, 3))
        cls = data.draw(st.sampled_from([VectorField, OneForm]))
        x, y = cls(data.draw(sparse_components(n))), cls(data.draw(sparse_components(n)))
        f = data.draw(sparse_components(n))[0]
        xs, ys = x.components, y.components
        cases = [
            (x + y, [a + b for a, b in zip(xs, ys)]),
            (x - y, [a - b for a, b in zip(xs, ys)]),
            (y - x, [b - a for a, b in zip(xs, ys)]),
            (x - x, [ScalarField.zero(n)] * n),
            (-x, [-a for a in xs]),
            (x.smul(f), [f * a for a in xs]),
        ]
        for got, expected in cases:
            assert type(got) is cls
            assert got.components == tuple(expected)
            for c in got.components:
                assert c is ScalarField.zero(n) or not c.is_zero()


@st.composite
def operator_sections(draw, n):
    """A section's 2n components: a frame section e_a, a scaled one x_k e_a,
    a dense polynomial section of degree <= 2, or the same with each
    component divided by 1 + x_j^2 half of the time.  Every zero is the
    shared one."""
    zero, one = ScalarField.zero(n), ScalarField.one(n)
    shape = draw(st.sampled_from(["frame", "scaled", "polynomial", "rational"]))
    if shape in ("frame", "scaled"):
        a = draw(st.integers(0, 2 * n - 1))
        entry = one if shape == "frame" else ScalarField.coordinate(n, draw(st.integers(0, n - 1)))
        return GSection._of(tuple(entry if i == a else zero for i in range(2 * n)))
    rng = Random(draw(st.integers(0, 2**32)))
    out = []
    for _ in range(2 * n):
        f = random_scalar(rng, n, draw(st.integers(0, 2)))
        if shape == "rational" and draw(st.booleans()):
            f = f / (one + ScalarField.coordinate(n, draw(st.integers(0, n - 1))) ** 2)
        out.append(f if not f.is_zero() else zero)
    return GSection._of(tuple(out))


class TestPackedOperators:
    """The three operators sum a scalar times a whole component vector in
    packed slots; each must equal the formula it replaced, one
    sum_of_products per component, with every zero the shared one."""

    @given(data=st.data())
    @settings(max_examples=120)
    def test_operators_match_the_componentwise_formulas(self, data):
        n = data.draw(st.integers(1, 4))
        s, t = data.draw(operator_sections(n)), data.draw(operator_sections(n))
        x, y, omega = s.vec, t.vec, exterior_derivative(s.form)
        cases = [
            (lie_bracket(x, y), componentwise_lie_bracket(x, y)),
            (lie_derivative(x, t.form), componentwise_lie_derivative(x, t.form)),
            (interior_product(y, omega), componentwise_interior_product(y, omega)),
            (dorfman(s, t), componentwise_dorfman(s, t)),
        ]
        for got, expected in cases:
            assert type(got) is type(expected)
            assert got.components == expected.components
            for c in got.components:
                assert c is ScalarField.zero(n) or not c.is_zero()

    def test_a_polynomial_bracket_is_one_accumulation(self, monkeypatch):
        # dense polynomial sections take the packed route: one call with n
        # slots, not one per component
        calls = []
        kernel = hypercourant.scalar._sum_products

        def counted(nvars, triples, slots=0):
            calls.append(slots)
            return kernel(nvars, triples, slots)

        monkeypatch.setattr(hypercourant.scalar, "_sum_products", counted)
        rng = suite_rng(34, "packed")
        x, y = random_vf(rng, 4), random_vf(rng, 4)
        assert all(not c.is_zero() for c in x.components + y.components)
        got = lie_bracket(x, y)
        assert calls == [4]
        assert got == componentwise_lie_bracket(x, y)

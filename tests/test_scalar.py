import copy
import json
import operator
import pickle
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import (
    _cnorm,
    _grlex,
    dict_add,
    grlex_terms,
    schoolbook_mul,
    termwise_evaluate,
    tuple_derivative,
)

from hypercourant import scalar
from hypercourant.errors import (
    DimensionMismatch,
    DivisionByZero,
    EngineError,
    IndexOutOfRange,
    PoleAtPoint,
)
from hypercourant.parse import parse_scalar
from hypercourant.runfile import parse_structure_text
from hypercourant.scalar import (
    MAX_TOTAL_DEGREE,
    Polynomial,
    ScalarField,
    poly_gcd,
    scalar_text,
    sharing,
    sum_of_products,
)
from hypercourant.structures import structure_file


def sf(text, nvars=3):
    return parse_scalar(text, nvars)


# -- strategies ---------------------------------------------------------------

NVARS = 2


@st.composite
def polynomials(draw, nvars=NVARS, max_degree=2, max_terms=4):
    n_terms = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n_terms):
        mono = tuple(
            draw(st.integers(0, max_degree)) for _ in range(nvars)
        )
        if sum(mono) > max_degree:
            continue
        terms[mono] = draw(st.integers(-4, 4))
    return Polynomial(nvars, terms)


@st.composite
def fields(draw, nvars=NVARS):
    num = draw(polynomials(nvars))
    den = draw(polynomials(nvars, max_degree=1, max_terms=2))
    if den.is_zero():
        den = Polynomial.one(nvars)
    return ScalarField(num, den)


# -- frozen examples ----------------------------------------------------------


class TestArith:
    def test_sub_self_is_zero(self):
        assert (sf("x1") - sf("x1")).is_zero()

    def test_difference_of_squares(self):
        assert sf("x1 + 1") * sf("x1 - 1") == sf("x1^2 - 1")

    def test_inverse_round_trip(self):
        inv = sf("1") / sf("1 + x1^2")
        assert inv == sf("1/(1 + x1^2)")
        assert inv * sf("1 + x1^2") == sf("1")

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            sf("x1") / sf("x1 - x1")


class TestPartial:
    def test_power_rule(self):
        assert sf("x1^2*x2").derivative(0) == sf("2*x1*x2")

    def test_constant(self):
        assert sf("5").derivative(1).is_zero()

    def test_quotient_rule_frozen(self):
        f = sf("1/(1+x1^2)", 1)
        df = f.derivative(0)
        assert df == sf("(-2*x1)/(x1^4 + 2*x1^2 + 1)", 1)
        # independent check: (1+x1^2)^2 * df + 2 x1 = 0
        residual = sf("(1+x1^2)^2", 1) * df + sf("2*x1", 1)
        assert residual.is_zero()

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            sf("x1").derivative(3)
        with pytest.raises(IndexOutOfRange):
            sf("x1").derivative(-1)


class TestEval:
    def test_product(self):
        assert sf("x1*x2", 2).evaluate((2, 3)) == 6

    def test_zero(self):
        assert sf("x1 - x1", 2).evaluate((7, -2)) == 0

    def test_rational_value(self):
        assert sf("1/(1+x1^2)", 1).evaluate((1,)) == Fraction(1, 2)

    def test_pole(self):
        with pytest.raises(PoleAtPoint):
            sf("1/x1", 1).evaluate((0,))

    def test_wrong_arity(self):
        with pytest.raises(DimensionMismatch):
            sf("x1", 2).evaluate((1,))


class TestCanonicalForm:
    def test_denominator_monic(self):
        f = sf("x1/(2*x2)", 2)
        assert f.den == Polynomial.variable(2, 1)
        assert f.num == Polynomial(2, {(1, 0): Fraction(1, 2)})

    def test_common_factor_cancelled(self):
        assert sf("(x1^2 - x2^2)/(x1 - x2)", 2) == sf("x1 + x2", 2)

    def test_zero_is_zero_over_one(self):
        f = sf("(x1 - x1)/(1 + x2)", 2)
        assert f.num.is_zero() and f.den.is_one()

    def test_multivariate_gcd(self):
        a = sf("(x1 + x2 + x3)*(x1 - x2)")
        b = sf("(x1 + x2 + x3)*(x1 + x3)")
        g = poly_gcd(a.num, b.num)
        assert g == sf("x1 + x2 + x3").num

    def test_gcd_power_cancellation(self):
        f = sf("(1+x1^2)^2/(1+x1^2)^3", 1)
        assert f == sf("1/(1+x1^2)", 1)


# -- properties ---------------------------------------------------------------


class TestRingLaws:
    @given(a=fields(), b=fields(), c=fields())
    @settings(max_examples=40)
    def test_add_mul_laws(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(a=fields())
    @settings(max_examples=25)
    def test_sub_and_div_round_trip(self, a):
        assert (a - a).is_zero()
        if not a.is_zero():
            assert a / a == ScalarField.one(NVARS)

    @given(f=fields())
    @settings(max_examples=25)
    def test_partials_commute(self, f):
        assert f.derivative(0).derivative(1) == f.derivative(1).derivative(0)

    @given(f=fields(), g=fields())
    @settings(max_examples=25)
    def test_leibniz(self, f, g):
        lhs = (f * g).derivative(0)
        assert lhs == f.derivative(0) * g + f * g.derivative(0)


class TestEqualityVsEvaluation:
    # sanity cross-check, not the definition of equality
    POINTS = [
        (Fraction(1), Fraction(2)),
        (Fraction(-1), Fraction(3)),
        (Fraction(2), Fraction(-1, 2)),
        (Fraction(1, 3), Fraction(5)),
    ]

    @given(a=fields(), b=fields())
    @settings(max_examples=30)
    def test_equal_fields_agree_everywhere(self, a, b):
        diff = a - b
        if diff.is_zero():
            for p in self.POINTS:
                try:
                    assert a.evaluate(p) == b.evaluate(p)
                except PoleAtPoint:
                    continue

    def test_unequal_fields_disagree_somewhere(self):
        a = sf("x1^2 + x2", 2)
        b = sf("x1^2 + x2 + 1/7", 2)
        assert any(a.evaluate(p) != b.evaluate(p) for p in self.POINTS)


class TestPolynomialInternals:
    def test_terms_sorted_graded_lex(self):
        p = sf("x2 + x1 + x1^2 + 3").num
        degrees = [sum(m) for m, _ in p.terms]
        assert degrees == sorted(degrees, reverse=True)
        # within equal degree, earlier variables dominate
        assert p.terms[1][0] == (1, 0, 0)
        assert p.terms[2][0] == (0, 1, 0)

    def test_no_zero_coefficients_stored(self):
        p = Polynomial(2, {(1, 0): 1, (0, 1): 0})
        assert all(c != 0 for _, c in p.terms)

    def test_fraction_collapse_to_int(self):
        p = Polynomial(1, {(1,): Fraction(4, 2)})
        assert p.terms[0][1] == 2 and type(p.terms[0][1]) is int

    def test_divexact_raises_on_inexact(self):
        a = Polynomial.variable(1, 0)
        b = Polynomial(1, {(0,): 1, (1,): 1})
        with pytest.raises(ArithmeticError):
            a.divexact(b)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            sf("x1", 1) + sf("x1", 2)

    def test_dimension_mismatch_with_a_zero_operand(self):
        # a zero operand reaches no Polynomial operation, so ScalarField
        # compares the charts itself
        for a, b in ((ScalarField.zero(2), sf("x1", 3)), (ScalarField.zero(2), ScalarField.zero(3))):
            for x, y in ((a, b), (b, a)):
                for op in (operator.add, operator.sub, operator.mul):
                    with pytest.raises(DimensionMismatch):
                        op(x, y)

    def test_substitute_one_variable(self):
        p = sf("x1^2*x2 - 3*x1 + x2^2", 2).num
        assert p.substitute(0, Fraction(1, 2)) == sf("1/4*x2 - 3/2 + x2^2", 2).num
        assert p.substitute(1, 0) == sf("-3*x1", 2).num
        assert sf("x1 - 2", 2).num.substitute(0, 2).is_zero()

    @given(f=fields())
    @settings(max_examples=25)
    def test_substitute_then_evaluate(self, f):
        p = f.num
        point = (Fraction(-3, 2), Fraction(5))
        assert p.substitute(0, point[0]).evaluate((0, point[1])) == p.evaluate(point)


X = sympy.symbols("x1:5")


def to_sympy(p: Polynomial) -> sympy.Poly:
    return sympy.Poly.from_dict({m: sympy.Rational(c) for m, c in p.terms}, *X[: p.nvars])


def assert_gcd_matches_sympy(a: Polynomial, b: Polynomial):
    # sympy keeps the integer content, orders terms lexicographically and
    # works over QQ when a coefficient is a fraction, so compare primitive
    # parts up to sign, as expressions
    expected = sympy.gcd(to_sympy(a), to_sympy(b)).primitive()[1].as_expr()
    got = to_sympy(poly_gcd(a, b)).as_expr()
    assert got in (expected, -expected)


@st.composite
def nonzero_polynomials(draw, nvars=3):
    p = draw(polynomials(nvars))
    return p if not p.is_zero() else Polynomial.variable(nvars, draw(st.integers(0, nvars - 1)))


@st.composite
def polynomials_in(draw, nvars, variables, max_degree=2):
    """A nonzero polynomial whose terms use only the given variables."""
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        mono = [0] * nvars
        for v in variables:
            mono[v] = draw(st.integers(0, max_degree))
        terms[tuple(mono)] = draw(st.integers(-6, 6).filter(bool))
    return Polynomial(nvars, terms)


class TestGcdAgainstSympy:
    @given(p=nonzero_polynomials(), q=nonzero_polynomials(), r=nonzero_polynomials())
    @settings(max_examples=40)
    def test_common_factor(self, p, q, r):
        assert_gcd_matches_sympy(p * r, q * r)

    @given(p=nonzero_polynomials(), q=nonzero_polynomials())
    @settings(max_examples=40)
    def test_one_argument_divides_the_other(self, p, q):
        assert_gcd_matches_sympy(p * q, q)
        assert_gcd_matches_sympy(q, p * q)

    @given(
        order=st.permutations(range(4)),
        data=st.data(),
    )
    @settings(max_examples=40)
    def test_overlapping_variables(self, order, data):
        # a over {u, s}, b over {s, v}, the common factor r over {s}: neither
        # variable set contains the other
        u, s, v, _ = order
        p = data.draw(polynomials_in(4, (u, s)))
        q = data.draw(polynomials_in(4, (s, v)))
        r = data.draw(univariate_polynomials(4, s, max_degree=1))
        assert_gcd_matches_sympy(p * r, q * r)
        assert_gcd_matches_sympy(p, q)

    def test_denominator_in_two_variables(self, time_budget):
        # from the theorem suite on the flat triple conjugated by
        # diag(1 + x2 x3, 1, 1, 1); it once ran for more than 20 s
        a = sf(STALLED_NUMERATOR, 4).num
        b = sf("(1 + x2*x3)^3", 4).num
        assert (len(a.packed), a.total_degree()) == (57, 9)
        with time_budget(5):
            assert poly_gcd(a, b).is_one()
            assert_gcd_matches_sympy(a, b)
            assert_gcd_matches_sympy(a * sf("1 + x2*x3", 4).num, b)

    def test_failed_division_check_retries(self, monkeypatch):
        # x1^2 x2 (x1 + 4 x2) (4 x1 + 5 x2) and -x1^3 x2^2 (x1 + 4 x2): the
        # first lifts are not divisors, so the evaluation point grows
        a = sf("4*x1^4*x2 + 21*x1^3*x2^2 + 20*x1^2*x2^3", 2).num
        b = sf("-1*x1^4*x2^2 - 4*x1^3*x2^3", 2).num
        failed = []
        divexact = Polynomial.divexact

        def counted(p, d):
            try:
                return divexact(p, d)
            except ArithmeticError:
                failed.append(d)
                raise

        monkeypatch.setattr(Polynomial, "divexact", counted)
        assert poly_gcd(a, b) == sf("x1^3*x2 + 4*x1^2*x2^2", 2).num
        assert failed
        assert_gcd_matches_sympy(a, b)


class TestGcdMemo:
    """poly_gcd memoises through the sharing scope and nowhere else."""

    a = sf("(x1 + x2)*(x1 - x3)", 3).num
    b = sf("(x1 + x2)*(x2 + 2*x3)", 3).num

    def test_outside_a_scope_every_call_computes(self, gcd_calls):
        first = poly_gcd(self.a, self.b)
        once = len(gcd_calls)
        assert once > 0
        assert poly_gcd(self.a, self.b) == first
        assert len(gcd_calls) == 2 * once

    def test_a_scope_computes_once_for_both_orders_and_scalings(self, gcd_calls):
        with sharing(lambda key: True) as scope:
            g = poly_gcd(self.a, self.b)
            once = len(gcd_calls)
            assert poly_gcd(self.b, self.a) is g
            assert poly_gcd(self.a * Polynomial.const(self.a.nvars, 3), self.b) is g
        assert len(gcd_calls) == once
        assert g == sf("x1 + x2", 3).num
        assert [key[0] for key in scope] == [scalar._gcd_int]


STALLED_NUMERATOR = (
    "3*x1*x2^4*x3^4 - 7*x2^5*x3^4 - 6*x2^4*x3^5 + x2^4*x3^4*x4 + x2^4*x3^4"
    " + 7*x1*x2^3*x3^3 - 23*x2^4*x3^3 - 24*x2^3*x3^4 + 8*x2^3*x3^3*x4 - 3*x2^3*x3^3"
    " + 2*x1^2*x2^2*x3 - 4*x1^2*x2*x3^2 + 4*x1*x2^3*x3 + 4*x1*x2^2*x3^2"
    " - 3*x1*x2^2*x3*x4 - 12*x1*x2*x3^3 + 8*x1*x2*x3^2*x4 - 6*x2^4*x3 - 15*x2^3*x3^2"
    " - x2^3*x3*x4 - 37*x2^2*x3^3 - 5*x2^2*x3^2*x4 + x2^2*x3*x4^2 - 9*x2*x3^4"
    " + 12*x2*x3^3*x4 - 3*x2*x3^2*x4^2 + 4*x1*x2*x3^2 - 8*x2^3*x3 - 18*x2^2*x3^2"
    " + x2^2*x3*x4 + 6*x2*x3^3 - 6*x2*x3^2*x4 - 2*x1^2*x2 - 2*x1^2*x3 - 2*x1*x2^2"
    " + 11*x1*x2*x3 + 7*x1*x2*x4 - 20*x1*x3^2 + x1*x3*x4 - 8*x2^3 + 17*x2^2*x3"
    " + 7*x2^2*x4 - 30*x2*x3^2 - 41*x2*x3*x4 - 5*x2*x4^2 - 3*x3^3 + 21*x3^2*x4"
    " - 8*x2^2 - 27*x2*x3 + x2*x4 + 14*x3^2 + x3*x4 + 9*x1 + 23*x2 - 20*x3 - 30*x4 - 11"
)


def field_to_sympy(f: ScalarField):
    return to_sympy(f.num).as_expr() / to_sympy(f.den).as_expr()


@st.composite
def field_pairs(draw):
    n = draw(st.integers(1, 3))
    return draw(fields(n)), draw(fields(n))


class TestArithmeticAgainstSympy:
    @given(pair=field_pairs())
    @settings(max_examples=40)
    def test_operations_and_derivatives(self, pair):
        f, g = pair
        a, b = field_to_sympy(f), field_to_sympy(g)
        cases = [(f + g, a + b), (f - g, a - b), (f * g, a * b)]
        if not g.is_zero():
            cases.append((f / g, a / b))
        cases += [(f.derivative(i), sympy.diff(a, X[i])) for i in range(f.nvars)]
        for got, expected in cases:
            assert sympy.cancel(field_to_sympy(got) - expected) == 0


class TestPrinting:
    @given(f=fields())
    @settings(max_examples=40)
    def test_round_trip(self, f):
        assert parse_scalar(scalar_text(f), NVARS) == f

    def test_leading_negative(self):
        f = sf("0 - x1 + 5", 1)
        text = scalar_text(f)
        assert parse_scalar(text, 1) == f


# -- packed product against the schoolbook oracle ------------------------------

# per-variable exponent caps on both sides of the 8-bit field: two factors
# with exponents up to 127 keep the product below 2**8, up to 128 reach it
EXPONENT_CAPS = [1, 2, 127, 128, 200]


# halves, thirds and twelfths, which cancel to ints in sums and derivatives
SMALL_DENOMINATORS = st.builds(Fraction, st.integers(-24, 24), st.sampled_from([2, 3, 12]))


@st.composite
def wide_polynomials(draw, nvars, cap, max_terms=4):
    coeffs = st.one_of(
        st.integers(-(10**12), 10**12),
        st.fractions(min_value=-1000, max_value=1000, max_denominator=50),
        SMALL_DENOMINATORS,
    )
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        mono = tuple(draw(st.integers(0, cap)) for _ in range(nvars))
        terms[mono] = draw(coeffs)
    return Polynomial(nvars, terms)


@st.composite
def wide_pairs(draw):
    nvars = draw(st.integers(0, 8))
    cap = draw(st.sampled_from(EXPONENT_CAPS))
    return draw(wide_polynomials(nvars, cap)), draw(wide_polynomials(nvars, cap))


@st.composite
def lopsided_pairs(draw):
    """A long polynomial (up to 16 terms) and a short one (up to 2), in
    either order, so the kernel loops over each side first."""
    nvars = draw(st.integers(1, 4))
    cap = draw(st.sampled_from(EXPONENT_CAPS))
    long = draw(wide_polynomials(nvars, cap, max_terms=16))
    short = draw(wide_polynomials(nvars, cap, max_terms=2))
    return (long, short) if draw(st.booleans()) else (short, long)


def assert_same_terms(got: Polynomial, expected):
    """`expected` is an oracle's term tuple or a Polynomial; either way the
    decoded terms must also be in the order of the oracle's grlex key."""
    if isinstance(expected, Polynomial):
        expected = expected.terms
    terms = got.terms
    assert list(terms) == sorted(terms, key=_grlex, reverse=True)
    assert terms == expected
    assert [type(c) for _, c in terms] == [type(c) for _, c in expected]


def monomial(*exponents) -> Polynomial:
    return Polynomial(len(exponents), {exponents: 1})


class TestPackedProduct:
    @given(pair=wide_pairs())
    @settings(max_examples=150)
    def test_matches_schoolbook(self, pair):
        a, b = pair
        assert_same_terms(a * b, schoolbook_mul(a, b))
        assert_same_terms(b * a, schoolbook_mul(b, a))

    def test_degree_past_eight_bits(self):
        # 255 + 1 fills the 8-bit field, so the field widens to 9 bits
        assert_same_terms(monomial(255) * monomial(1), monomial(256))
        p = Polynomial(2, {(255, 0): 1, (0, 1): -1})
        assert_same_terms(p * p, schoolbook_mul(p, p))

    def test_exponents_in_two_variables_of_three(self):
        assert_same_terms(monomial(200, 0, 0) * monomial(0, 100, 0), monomial(200, 100, 0))

    def test_no_variables(self):
        a, b = Polynomial.const(0, 6), Polynomial.const(0, Fraction(-1, 4))
        assert (a * b).terms == (((), Fraction(-3, 2)),)
        assert_same_terms(a * Polynomial.const(0, Fraction(1, 6)), Polynomial.one(0))
        assert (a * Polynomial.zero(0)).is_zero()

    def test_constant_times_polynomial(self):
        p = sf("x1^2*x3 - 3/2*x2 + 4").num
        for c in (Fraction(2, 3), -2, 1):
            k = Polynomial.const(3, c)
            assert_same_terms(k * p, schoolbook_mul(k, p))
            assert_same_terms(p * k, schoolbook_mul(p, k))
        assert_same_terms(Polynomial.const(3, Fraction(2, 3)) * p, tuple_scale(p, Fraction(2, 3)))


@st.composite
def divisor_pairs(draw):
    """A polynomial and a nonzero divisor in its chart: one of up to four
    terms, of one term, or a constant."""
    nvars = draw(st.integers(0, 8))
    cap = draw(st.sampled_from(EXPONENT_CAPS))
    constants = st.one_of(st.integers(-(10**12), 10**12), SMALL_DENOMINATORS)
    q = draw(
        st.one_of(
            wide_polynomials(nvars, cap),
            wide_polynomials(nvars, cap, max_terms=1),
            st.builds(Polynomial.const, st.just(nvars), constants),
        ).filter(lambda q: not q.is_zero())
    )
    return draw(wide_polynomials(nvars, cap)), q


class TestDivexact:
    @given(pair=divisor_pairs())
    @settings(max_examples=100)
    def test_product_divides_back(self, pair):
        p, q = pair
        assert_same_terms((p * q).divexact(q), p)

    @given(pair=divisor_pairs())
    @settings(max_examples=100)
    def test_inexact_division_raises(self, pair):
        p, q = pair
        r = p * q + Polynomial.one(q.nvars)
        if q.is_const():
            # over Q a constant divides everything, whatever the int content
            assert_same_terms(r.divexact(q), r * Polynomial.const(q.nvars, 1 / Fraction(q.leading_coeff())))
            return
        # a non-constant q divides p*q + 1 only if it divides 1
        with pytest.raises(ArithmeticError):
            r.divexact(q)


class TestEvaluate:
    @given(data=st.data())
    @settings(max_examples=100)
    def test_matches_termwise_sum(self, data):
        nvars = data.draw(st.integers(0, 4))
        p = data.draw(wide_polynomials(nvars, data.draw(st.sampled_from([1, 2, 5]))))
        coordinates = st.one_of(
            st.integers(-7, 7),
            st.fractions(min_value=-7, max_value=7, max_denominator=12),
            # anything Fraction() takes, such as a binary float
            st.sampled_from([0.5, -1.25, 3.0]),
        )
        point = tuple(data.draw(coordinates) for _ in range(nvars))
        for f in (p, Polynomial.zero(nvars)):
            got = f.evaluate(point)
            assert type(got) is Fraction and got == termwise_evaluate(f, point)


# -- packed storage against the tuple oracles ----------------------------------

COEFFS = st.one_of(
    st.integers(-(10**6), 10**6).filter(bool),
    st.fractions(min_value=-100, max_value=100, max_denominator=12).filter(bool),
)


def tuple_neg(p: Polynomial) -> Polynomial:
    return Polynomial(p.nvars, [(m, -c) for m, c in p.terms])


def tuple_scale(p: Polynomial, k) -> tuple:
    return grlex_terms({m: _cnorm(c * k) for m, c in p.terms})


def assert_canonical(p: Polynomial):
    # nonzero int coefficients in decreasing key order over a denominator
    # that shares no factor with them; zero is () over 1
    keys = [k for k, _ in p.packed]
    assert keys == sorted(set(keys), reverse=True)
    assert all(type(c) is int and c for _, c in p.packed)
    assert type(p.den) is int and p.den >= 1
    assert gcd(p.den, *[c for _, c in p.packed]) == 1
    # the decoded terms rebuild the same value, hash included
    again = Polynomial(p.nvars, p.terms)
    assert again == p and hash(again) == hash(p)


class TestPackedArithmetic:
    @given(pair=st.one_of(wide_pairs(), lopsided_pairs()), k=COEFFS)
    @settings(max_examples=200)
    def test_matches_tuple_oracles(self, pair, k):
        a, b = pair
        cases = [
            (a + b, dict_add(a, b)),
            (a - b, dict_add(a, tuple_neg(b))),
            (a * b, schoolbook_mul(a, b)),
            (b * a, schoolbook_mul(b, a)),
            (a * Polynomial.const(a.nvars, k), tuple_scale(a, k)),
        ]
        for v in range(a.nvars):
            cases += [(a.derivative(v), tuple_derivative(a, v))]
        if not b.is_zero():
            cases.append(((a * b).divexact(b), a))
        for got, expected in cases:
            assert_same_terms(got, expected)
            assert_canonical(got)

    def test_denominators_cancel_to_int_coefficients(self):
        x1, half = monomial(1), Fraction(1, 2)
        by_half = Polynomial.const(1, half)
        cases = [
            (x1 * by_half + x1 * by_half, x1),
            (Polynomial(1, {(2,): half}).derivative(0), x1),
            (x1 * Polynomial.const(1, Fraction(3, 4)) * Polynomial.const(1, Fraction(4, 3)), x1),
        ]
        for got, expected in cases:
            assert_same_terms(got, expected)
            assert got == expected and hash(got) == hash(expected)
            assert_canonical(got)
        assert type(x1.terms[0][1]) is int and x1.den == 1

    def test_sum_falls_below_width(self):
        wide = monomial(256)
        got = (wide + monomial(1)) - wide
        assert got == monomial(1) and hash(got) == hash(monomial(1))

    def test_derivative_falls_below_width(self):
        got = monomial(256).derivative(0)
        assert got == Polynomial(1, {(255,): 256})

    def test_quotient_falls_below_width(self):
        p = Polynomial(2, {(250, 0): 3, (1, 1): -1})
        q = Polynomial(2, {(10, 0): 1, (0, 1): Fraction(1, 2)})
        got = (p * q).divexact(q)
        assert got == p
        # by a single term, which keeps the order of the keys
        got = monomial(300, 1).divexact(monomial(100, 0))
        assert got == monomial(200, 1)

    def test_substitute_and_coefficient_fall_below_width(self):
        p = Polynomial(2, {(300, 1): 1, (0, 1): 2})
        assert_same_terms(p.substitute(0, 1), Polynomial(2, {(0, 1): 3}))

    def test_zero_and_one_are_shared(self):
        assert Polynomial.zero(3) is Polynomial.zero(3) is (monomial(0, 0, 1) * Polynomial.zero(3))
        assert Polynomial.const(3, 1) is Polynomial.one(3)
        assert ScalarField.zero(3) is ScalarField.zero(3)
        assert ScalarField.one(3) is ScalarField.one(3)
        assert sf("7/2").derivative(1) is ScalarField.zero(3)
        assert sf("1/(1+x1^2)").derivative(1) is ScalarField.zero(3)
        # every constructor returns the shared value, parsing included
        assert Polynomial(3, {}) is Polynomial(3, {(1, 0, 0): 0}) is Polynomial.zero(3)
        assert ScalarField.const(3, 0) is sf("0") is ScalarField.zero(3)
        assert ScalarField.const(3, 1) is sf("1") is ScalarField.one(3)
        assert ScalarField.from_polynomial(Polynomial.zero(3)) is ScalarField.zero(3)
        assert ScalarField.from_polynomial(Polynomial(3, {(0, 0, 0): 1})) is ScalarField.one(3)
        assert pickle.loads(pickle.dumps(Polynomial.zero(3))) is Polynomial.zero(3)
        p = Polynomial(3, {(2, 0, 1): Fraction(3, 4), (0, 0, 0): 5})
        assert pickle.loads(pickle.dumps(p)) == copy.copy(p) == p
        doc = parse_structure_text(json.dumps(structure_file("flat-quaternionic")))
        for endo in (doc.triple.i, doc.triple.j):
            zeros = [f for b in endo.blocks().values() for row in b for f in row if f.is_zero()]
            assert len(zeros) == 56 and all(f is ScalarField.zero(4) for f in zeros)


class TestSubtraction:
    """a - b equals a + (-b), over mixed denominators, and an exact
    cancellation is the shared zero."""

    @given(pair=st.one_of(wide_pairs(), lopsided_pairs()))
    @settings(max_examples=100)
    def test_polynomials(self, pair):
        a, b = pair
        c = a + b
        for x, y in ((a, b), (b, a), (c, b), (c, a), (a, b * Polynomial.const(b.nvars, Fraction(-5, 6)))):
            got = x - y
            assert_same_terms(got, x + (-y))
            assert_canonical(got)
        if not a.is_zero():
            assert a - a is Polynomial.zero(a.nvars)
            assert (c - b) - a is Polynomial.zero(a.nvars)

    @given(pair=field_pairs())
    @settings(max_examples=100)
    def test_fields(self, pair):
        f, g = pair
        h = f + g
        third = g * ScalarField.const(g.nvars, Fraction(1, 3))
        minus_seven = f * ScalarField.const(f.nvars, -7)
        for a, b in ((f, g), (g, f), (h, g), (h, f), (f, third), (f, minus_seven), (h, third)):
            assert_same_field(a - b, a + (-b))
        if not f.is_zero():
            assert f - f is ScalarField.zero(f.nvars)
            assert (h - g) - f is ScalarField.zero(f.nvars)


# -- the sum-of-products kernel against the fold of * and + --------------------


def fold_sum_of_products(nvars, plus, minus=()):
    acc = ScalarField.zero(nvars)
    for f, g in plus:
        acc = acc + f * g
    for f, g in minus:
        acc = acc - f * g
    return acc


@st.composite
def kernel_operands(draw, nvars):
    """Zero, a polynomial, a rational function, or a polynomial of degree
    past 255."""
    kind = draw(st.sampled_from(["zero", "polynomial", "rational", "wide"]))
    if kind == "zero":
        return ScalarField.zero(nvars)
    if kind == "polynomial":
        return ScalarField.from_polynomial(draw(polynomials(nvars)))
    if kind == "rational":
        return draw(fields(nvars))
    return ScalarField.from_polynomial(draw(wide_polynomials(nvars, 200, max_terms=3)))


@st.composite
def kernel_sums(draw):
    n = draw(st.integers(1, 3))
    pairs = st.lists(st.tuples(kernel_operands(n), kernel_operands(n)), max_size=5)
    return n, draw(pairs), draw(pairs)


@st.composite
def mixed_sums(draw):
    """Pairs of polynomials whose coefficients mix ints with halves, thirds
    and twelfths, and rational functions among them; some pairs are a long
    polynomial (6 to 12 terms) times a short one (1 or 2)."""
    n = draw(st.integers(1, 3))
    coeffs = st.one_of(st.integers(-6, 6), SMALL_DENOMINATORS)

    def polynomials(top, min_size, max_size):
        mono = st.tuples(*[st.integers(0, top)] * n)
        return st.dictionaries(mono, coeffs, min_size=min_size, max_size=max_size).map(
            lambda terms: ScalarField.from_polynomial(Polynomial(n, terms))
        )

    mixed = polynomials(2, 0, 4)
    operand = st.one_of(mixed, mixed, fields(n))
    lopsided = st.tuples(polynomials(8, 6, 12), polynomials(8, 1, 2))
    pairs = st.lists(st.one_of(st.tuples(operand, operand), lopsided), max_size=5)
    return n, draw(pairs), draw(pairs)


def assert_same_field(got: ScalarField, expected: ScalarField):
    assert got == expected and hash(got) == hash(expected)
    assert_canonical(got.num)
    assert_canonical(got.den)


class TestDegreeBound:
    """Every key field holds a total degree up to MAX_TOTAL_DEGREE; a
    polynomial above it raises EngineError wherever a degree can grow."""

    def test_constructor(self):
        with pytest.raises(EngineError, match="degree above 65535"):
            Polynomial(1, {(65536,): 1})
        with pytest.raises(EngineError, match="degree above 65535"):
            Polynomial(2, {(40000, 25536): 1, (0, 0): 1})
        assert Polynomial(2, {(40000, 25535): 1}).total_degree() == MAX_TOTAL_DEGREE

    def test_product_and_power(self):
        x, one = monomial(1), Polynomial.one(1)
        assert monomial(40000) * monomial(25535) == monomial(65535)
        assert (x + one) * (monomial(65534) + one) == Polynomial(
            1, {(65535,): 1, (65534,): 1, (1,): 1, (0,): 1}
        )
        assert x**65535 == monomial(65535)
        for too_high in (
            lambda: monomial(40000) * monomial(25536),
            lambda: (x + one) * (monomial(65535) + one),
            lambda: x**65536,
        ):
            with pytest.raises(EngineError, match="degree above 65535"):
                too_high()

    def test_lone_pair(self):
        # one fused pair goes through Polynomial.__mul__, not the kernel
        x, one = sf("x1", 1), sf("1", 1)
        for a, b in ((x**40000, x**25536), (x**40000 + one, x**25536), (x**40000 + one, x**25536 + x)):
            for plus, minus in (([(a, b)], []), ([], [(a, b)]), ([(b, a)], [])):
                with pytest.raises(EngineError, match="degree above 65535"):
                    sum_of_products(1, plus, minus)
        got = sum_of_products(1, [], [(x**40000 + one, x**25535)])
        assert_same_field(got, -(x**65535 + x**25535))

    def test_sum_of_products(self):
        x = sf("x1", 1)
        assert_same_field(sum_of_products(1, [(x**40000, x**25535)]), x**65535)
        with pytest.raises(EngineError, match="degree above 65535"):
            sum_of_products(1, [(x**40000, x**25536)])
        with pytest.raises(EngineError, match="degree above 65535"):
            sum_of_products(1, [(x, x)], [(x**40000, x**25536)])


class TestSumOfProducts:
    @given(case=kernel_sums())
    @settings(max_examples=150)
    def test_matches_fold(self, case):
        n, plus, minus = case
        assert_same_field(sum_of_products(n, plus, minus), fold_sum_of_products(n, plus, minus))
        assert_same_field(sum_of_products(n, iter(plus)), fold_sum_of_products(n, plus))

    @given(case=kernel_sums())
    @settings(max_examples=50)
    def test_cancelling_sum_is_the_shared_zero(self, case):
        n, plus, _ = case
        assert sum_of_products(n, plus, plus) is ScalarField.zero(n)

    @given(case=mixed_sums())
    @settings(max_examples=150)
    def test_mixed_denominators_match_fold(self, case):
        # each pair in both operand orders: long x short and short x long
        n, plus, minus = case
        expected = fold_sum_of_products(n, plus, minus)
        swapped = [(g, f) for f, g in plus], [(g, f) for f, g in minus]
        for got in (sum_of_products(n, plus, minus), sum_of_products(n, *swapped)):
            assert (got.num.terms, got.den.terms) == (expected.num.terms, expected.den.terms)
            assert_same_field(got, expected)

    def test_empty_and_zero_operands(self):
        zero = ScalarField.zero(3)
        assert sum_of_products(3, []) is zero
        assert sum_of_products(3, [], []) is zero
        assert sum_of_products(3, [(zero, sf("x1")), (sf("1/(1 + x2)"), zero)]) is zero

    def test_mixed_pairs(self):
        plus = [(sf("x1"), sf("x2 + 1")), (sf("1/(1 + x1)"), sf("x1 + 1"))]
        minus = [(sf("x3"), sf("1/(x3 + 2)"))]
        expected = sf("x1*x2 + x1 + 1 - x3/(x3 + 2)")
        assert_same_field(sum_of_products(3, plus, minus), expected)

    def test_wide_products_fall_back_to_canonical_width(self):
        x = sf("x1", 1)
        high = [(x**200, x**100), (x, sf("1", 1))]
        got = sum_of_products(1, high, [(x**150, x**150)])
        assert_same_field(got, x)
        got = sum_of_products(1, [(x**200, x**100)])
        assert_same_field(got, x**300)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            sum_of_products(3, [(sf("x1"), sf("x1", 2))])
        with pytest.raises(DimensionMismatch):
            sum_of_products(2, [], [(sf("x1"), sf("x2"))])


# -- gcds against a univariate operand, with rational coefficients ---------------


@st.composite
def univariate_polynomials(draw, nvars, var, max_degree=3):
    coeffs = st.fractions(min_value=-20, max_value=20, max_denominator=6)
    terms = {}
    for e in range(draw(st.integers(0, max_degree)) + 1):
        terms[tuple(e if k == var else 0 for k in range(nvars))] = draw(coeffs)
    top = tuple(max_degree + 1 if k == var else 0 for k in range(nvars))
    # at least degree 1 in `var`, so the gcd shares that variable
    terms[top] = draw(coeffs.filter(bool))
    return Polynomial(nvars, terms)


@st.composite
def rational_polynomials(draw, nvars=3):
    coeffs = st.fractions(min_value=-20, max_value=20, max_denominator=6).filter(bool)
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        terms[tuple(draw(st.integers(0, 2)) for _ in range(nvars))] = draw(coeffs)
    return Polynomial(nvars, terms)


class TestUnivariateGcdAgainstSympy:
    @given(
        var=st.integers(0, 2),
        data=st.data(),
    )
    @settings(max_examples=60)
    def test_univariate_against_multivariate(self, var, data):
        u = data.draw(univariate_polynomials(3, var, max_degree=2))
        r = data.draw(univariate_polynomials(3, var, max_degree=1))
        p = data.draw(rational_polynomials())
        assert_gcd_matches_sympy(p * r, u * r)
        assert_gcd_matches_sympy(u * r, p * r)
        assert_gcd_matches_sympy(p, u)

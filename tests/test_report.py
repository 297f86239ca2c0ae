"""The witness search against the lexicographic grid walk it replaces."""

import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypercourant.parse import parse_scalar
from hypercourant.report import POINT_CANDIDATES, CheckReport, find_nonzero_point, witness_for
from hypercourant.scalar import Polynomial, ScalarField

from oracle import lexicographic_nonzero_point

# early candidates, where forced zeros and poles cost the grid walk most
EARLY = POINT_CANDIDATES[:6]


@st.composite
def witness_fields(draw):
    """Nonzero fields with n <= 3, some vanishing or with poles on early
    candidate hyperplanes; every variable's degree in num * den stays
    far below the candidate count."""
    n = draw(st.integers(1, 3))
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        mono = tuple(draw(st.integers(0, 2)) for _ in range(n))
        terms[mono] = draw(st.integers(-3, 3))
    num = Polynomial(n, terms)
    den = Polynomial.one(n)
    for target in (False, True):
        for _ in range(draw(st.integers(0, 2))):
            var = draw(st.integers(0, n - 1))
            c = draw(st.sampled_from(EARLY))
            factor = Polynomial.variable(n, var) - Polynomial.const(n, c)
            if target:
                den = den * factor
            else:
                num = num * factor
    assume(not num.is_zero())
    f = ScalarField(num, den)
    assume(all(f.num.deg_in(v) + f.den.deg_in(v) < len(POINT_CANDIDATES) for v in range(n)))
    return f


@given(f=witness_fields())
@settings(max_examples=60)
def test_same_point_and_value_as_grid_walk(f):
    assert find_nonzero_point(f) == lexicographic_nonzero_point(f)


def test_residual_in_first_variable_at_n6_is_immediate():
    f = parse_scalar("2*x1", 6)
    t0 = time.perf_counter()
    point, value = find_nonzero_point(f)
    assert time.perf_counter() - t0 < 0.5
    assert point == (1, 0, 0, 0, 0, 0)
    assert value == 2


def test_candidates_extend_past_the_list():
    x1 = Polynomial.variable(2, 0)
    num = Polynomial.one(2)
    for c in POINT_CANDIDATES:
        num = num * (x1 - Polynomial.const(2, c))
    point, value = find_nonzero_point(ScalarField.from_polynomial(num))
    assert point == (50, 0)
    expected = Fraction(1)
    for c in POINT_CANDIDATES:
        expected *= 50 - c
    assert value == expected


def test_poles_are_skipped():
    point, value = find_nonzero_point(parse_scalar("1/(x1*(x1 - 1))", 1))
    assert point == (-1,)
    assert value == Fraction(1, 2)


def test_zero_field_is_refused():
    with pytest.raises(ValueError):
        find_nonzero_point(ScalarField.zero(2))


def test_witness_prints_point_and_value():
    w = witness_for(parse_scalar("x2/(x1 + 1)", 2), context="ctx")
    assert (w.label, w.expression, w.point, w.value) == ("ctx.scalar", "(x2)/(x1 + 1)", ("0", "1"), "1")


def test_a_report_built_from_id_and_outcome_has_no_trial_and_no_witness():
    report = CheckReport("x", True)
    assert (report.trial, report.witness) == (None, None)
    assert report.to_dict() == {"check-id": "x", "pass": True}

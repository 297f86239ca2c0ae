import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercourant.errors import DivisionByZero, EngineError, ScalarSyntaxError, UnknownVariable
from hypercourant.parse import MAX_DEPTH, MAX_EXPONENT, parse_scalar
from hypercourant.scalar import MAX_TOTAL_DEGREE, ScalarField, scalar_text


def test_polynomial_with_rational_coefficient():
    f = parse_scalar("3/2*x1^2*x2 - x3", 3)
    x1 = ScalarField.coordinate(3, 0)
    x2 = ScalarField.coordinate(3, 1)
    x3 = ScalarField.coordinate(3, 2)
    assert f == ScalarField.const(3, "3/2") * x1 * x1 * x2 - x3


def test_rational_function_denominator():
    f = parse_scalar("1/(1+x1^2)", 1)
    assert f.den == parse_scalar("x1^2 + 1", 1).num
    assert f.den.leading_coeff() == 1


def test_unknown_variable_with_position():
    with pytest.raises(UnknownVariable) as exc:
        parse_scalar("x1 + x4", 2)
    assert exc.value.name == "x4"
    assert exc.value.position == 5


@pytest.mark.parametrize(
    "text, name, position",
    [("x0", "x0", 0), ("x01", "x01", 0), ("x5", "x5", 0), ("x1 + x00", "x00", 5)],
)
def test_chart_names_have_no_leading_zero_or_index_zero(text, name, position):
    with pytest.raises(UnknownVariable) as exc:
        parse_scalar(text, 4)
    assert (exc.value.name, exc.value.position) == (name, position)


def test_dimension_argument_accepts_int():
    assert parse_scalar("x2", 2) == ScalarField.coordinate(2, 1)


def test_whitespace_insignificant():
    assert parse_scalar(" 1   +x1 ", 1) == parse_scalar("1+x1", 1)


def test_negative_literal_in_base_position():
    assert parse_scalar("-2*x1", 1) == ScalarField.coordinate(1, 0) * ScalarField.const(1, -2)
    assert parse_scalar("3 * -2", 1) == ScalarField.const(1, -6)


def test_rational_literal_is_greedy():
    # 1/2 is one literal, so 1/2*x1 is (1/2)*x1, not 1/(2*x1)
    assert parse_scalar("1/2*x1", 1) == ScalarField.coordinate(1, 0) * ScalarField.const(1, "1/2")
    # but a parenthesized denominator is a division
    assert parse_scalar("1/(2)*x1", 1) == parse_scalar("1/2*x1", 1)


def test_power_binds_to_base():
    assert parse_scalar("2*x1^3", 1) == parse_scalar("2*(x1*x1*x1)", 1)
    assert parse_scalar("1/2^2", 1) == ScalarField.const(1, "1/4")
    assert parse_scalar("(x1/(1+x2))^3", 2) == parse_scalar("x1/(1+x2)*x1/(1+x2)*x1/(1+x2)", 2)
    # rational bases and the negative powers the grammar cannot write
    for text in ("3/2", "x1 - 2*x2", "(1 + x1^2)/(2*x2)", "x1/(x1 + x2)", "-1/(3 + x1*x2)"):
        base = parse_scalar(text, 2)
        for e in range(-3, 5):
            expected = ScalarField.one(2)
            for _ in range(abs(e)):
                expected = expected * base if e > 0 else expected / base
            assert base**e == expected and hash(base**e) == hash(expected)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "x1 +",
        "x1 x2",          # juxtaposition is not multiplication
        "(x1",
        "x1^0",           # exponent must be positive
        "x1^(2)",
        "- x1",           # no unary minus on variables
        "3/0",            # rational denominator must be positive
        "x1 @ x2",
        "2.5",            # no floats in the grammar
    ],
)
def test_syntax_errors(text):
    with pytest.raises(ScalarSyntaxError):
        parse_scalar(text, 2)


@pytest.mark.parametrize(
    "text",
    [
        "\u0663",         # Arabic-Indic digit three
        "\uff11\uff12",   # fullwidth digits one, two
        "x\u0661",        # Arabic-Indic digit one in a variable name
        "\u00a0x1",       # leading no-break space
        "x1 +\u2003x2",   # inner em space
        "x1\u3000",       # trailing ideographic space
    ],
)
def test_digits_and_spaces_are_ascii(text):
    # \d and \s of the tokenizer would match these without re.ASCII
    with pytest.raises(ScalarSyntaxError):
        parse_scalar(text, 2)


def test_every_ascii_space_separates():
    assert parse_scalar("\t1\n+\rx1\f\v", 1) == parse_scalar("1+x1", 1)


def test_syntax_error_reports_position():
    with pytest.raises(ScalarSyntaxError) as exc:
        parse_scalar("x1 + )", 2)
    assert exc.value.position == 5


def test_nesting_depth_is_bounded():
    assert parse_scalar("(" * MAX_DEPTH + "x1" + ")" * MAX_DEPTH, 1) == parse_scalar("x1", 1)
    deeper = MAX_DEPTH + 1
    with pytest.raises(ScalarSyntaxError) as exc:
        parse_scalar("(" * deeper + "x1" + ")" * deeper, 1)
    assert exc.value.position == MAX_DEPTH


def test_powers_are_bounded():
    x1 = ScalarField.coordinate(2, 0)
    assert parse_scalar(f"x1^{MAX_EXPONENT}", 2) == x1 ** MAX_EXPONENT
    assert parse_scalar("(x1^4)^8", 2) == x1 ** 32
    with pytest.raises(ScalarSyntaxError) as exc:
        parse_scalar("(1+x1+x2)^200", 2)
    assert exc.value.position == 10
    # nested powers multiply, so they are bounded by their product
    with pytest.raises(ScalarSyntaxError) as exc:
        parse_scalar("((1+x1)^8)^8", 2)
    assert exc.value.position == 11
    with pytest.raises(ScalarSyntaxError):
        parse_scalar("(2^33)^1", 2)


def test_total_degree_bound_is_inclusive():
    # each factor is within the exponent bound; the product's total degree,
    # 32 per factor, reaches MAX_TOTAL_DEGREE = 65535 between 2047 and 2048
    def product(factors):
        return "*".join([f"x1^{MAX_EXPONENT}"] * factors)

    assert parse_scalar(product(2047), 1) == ScalarField.coordinate(1, 0) ** (32 * 2047)
    with pytest.raises(EngineError, match=f"degree above {MAX_TOTAL_DEGREE}"):
        parse_scalar(product(2048), 1)


def test_integer_literals_past_the_digit_limit_are_refused():
    # int() refuses more than 4,300 digits by default
    assert parse_scalar("1" * 4300, 1) == ScalarField.const(1, int("1" * 4300))
    with pytest.raises(ScalarSyntaxError) as exc:
        parse_scalar("x1 + " + "1" * 5000, 1)
    assert exc.value.position == 5


def test_division_by_zero_field():
    with pytest.raises(DivisionByZero):
        parse_scalar("x1/(x2 - x2)", 2)


def test_print_parse_round_trip_on_canonical_forms():
    samples = [
        "0",
        "1",
        "-7/3",
        "x1^2 - 1",
        "(x1 - x2)/(x1 + x2)",
        "(-2*x1)/(x1^4 + 2*x1^2 + 1)",
        "-1*x1 + 5",
    ]
    for text in samples:
        f = parse_scalar(text, 2)
        assert parse_scalar(scalar_text(f), 2) == f


# grammar characters, with digits and variable names weighted up
GRAMMAR_TEXT = st.lists(
    st.sampled_from(["x1", "x2", "x3", "0", "1", "2", "7", "12", " "] + list("x+-*/^()9")),
    max_size=24,
).map("".join)


@given(text=st.one_of(GRAMMAR_TEXT, st.text(max_size=24)))
@settings(max_examples=300)
def test_fuzzed_text_parses_or_raises_engine_error(text):
    try:
        f = parse_scalar(text, 2)
    except EngineError:
        return
    assert parse_scalar(scalar_text(f), 2) == f

"""Independent oracles for the Dorfman bracket and the witness search.

The engine computes [[X+xi, Y+eta]] from the closed coordinate formula
[X,Y] + L_X eta - i_Y d xi.  This oracle never touches that formula: it
expands both arguments over the constant frame sections e_a (whose brackets
all vanish) and applies only the two scalar Leibniz rules

    [[a, f b]] = f [[a, b]] + (rho(a) f) b
    [[f a, b]] = f [[a, b]] - (rho(b) f) a + 2 <a, b> D f

term by term, with the frame pairings <e_a, e_b> hardcoded.  Agreement of
the two routes on random sections is the main correctness evidence for the
bracket implementation.

Two mutants show that the suites notice a broken formula.  The bracket
mutant, corrupted_dorfman, flips the sign of the i_Y d xi term; the
`corrupted_bracket` fixture patches it over courant.dorfman, which
verify_axioms reads at call time.  The connection mutant, the
`flipped_connection` fixture of the nijenhuis tests, flips the sign of the
connection's last inner term.

A section is stored as one tuple of its 2n components; its arithmetic and
its pairing are checked against the formulas on the two halves, the vector
field X and the 1-form xi, with the pairing (xi(Y) + eta(X))/2 taken through
pair_form_vector, a plain sum of field products that bypasses the engine's
fused kernel.

The first-slot linearity defect N(fX,Y) - f N(X,Y) of the concomitant has
three routes here, all asserted exactly by acceptance criterion 6: direct
evaluation of the engine's concomitant (concomitant_linearity_defect, which
also returns the second-slot defect), the closed form on the engine's
four-term expression with br(a,b) = 2<a,b> Df (linearity_defect_formula),
and the eight-term concomitant on the Leibniz-rule bracket
(oracle_first_slot_defect).  nabla_endo is the covariant derivative
(nabla_X F)Y = nabla_X(FY) - F(nabla_X Y) of an endomorphism, which the
engine's suites take inline.

The witness search is checked against the plain lexicographic walk over the
candidate grid, which evaluates the field at every point in turn.

Concomitant vanishing, which the engine decides on the 2n frame sections
alone, is checked against the larger family of frame sections times
monomials, each pair evaluated with the plain eight-term concomitant.

The connection-level pass, which draws each trial's input once and runs
every selected suite on it, is checked against the four sampling loops it
replaced (connection laws, identities, Delta properties and the theorem's
connection flags), each run on an explicit list of inputs.  They call the
nijenhuis module's connection, delta, concomitant and torsion formula as
they are at call time, so a patched connection reaches them too.

The theorem suite is checked beyond the built-in examples on triples built
here from them by structures.conjugated.  The frame change P = diag(M,
M^-T) of structures.frame_change is an automorphism of the pairing for any
invertible M; it is a Courant automorphism when M = (D phi)^-1 for a
polynomial automorphism phi, which pulls an integrable triple back to an
integrable one (pullback_frame, and triangular_frame for any triangular
phi), while a unitriangular M that is no Jacobian's inverse
(NON_JACOBIAN_FRAME, or any unitriangular_frame whose inverse fails
is_jacobian) need not.  e^B (b_field), (X, xi) |-> (X, xi + i_X B),
is a Courant automorphism for a closed 2-form B (CLOSED_B), and for B not
closed (NON_CLOSED_B) an automorphism of the pairing only.  product_triple
is the block-diagonal triple on the product chart, its second factor's
coordinates renamed past the first's.

The whole theorem report is checked against pure algebra on left-invariant
triples (left_invariant): a constant triple on g + g* for a nilpotent Lie
algebra g, moved to the chart by the left-invariant frame in exponential
coordinates.  On constant sections of g + g* the Dorfman bracket is
[[u + a, v + b]] = [u, v] - b ad_u + a ad_v, so the concomitant pattern and
the connection flags are decided on integer vectors, with no scalar field
or Cartan-layer code.

The Cartan operators, which the engine computes as one sum of scalars
times component vectors in packed slots, are checked against the formulas
they replaced, one scalar sum_of_products per component
(componentwise_lie_bracket, componentwise_lie_derivative and
componentwise_interior_product), and dorfman against the same formula on
them (componentwise_dorfman).

Polynomial arithmetic, which the engine computes on packed monomials, is
checked against the schoolbook product, the dict sum and the derivative on
exponent tuples; each oracle returns its terms in the order of its own grlex
sort key, so the comparison checks the engine's term order as well.
Polynomial.evaluate, which substitutes one coordinate at a time, is checked
against the sum of its decoded terms' values in Fraction arithmetic.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from itertools import product
from math import factorial

from hypercourant import nijenhuis as nij
from hypercourant.cartan import (
    OneForm,
    TwoForm,
    VectorField,
    _check_dim,
    exterior_derivative,
    interior_product,
    lie_bracket,
)
from hypercourant.courant import GSection, anchor_apply, basis_sections, d_map, dorfman, pairing
from hypercourant.endo import GEndo, HKTriple, mat_identity, mat_mul, mat_neg, mat_transpose, mat_zero
from hypercourant.errors import DimensionMismatch, PoleAtPoint
from hypercourant.nijenhuis import (
    CONCOMITANT_KEYS,
    ConcomitantStatus,
    _all_but_images,
    _bracket,
    _four_terms,
    _image,
    concomitant,
)
from hypercourant.parse import parse_scalar
from hypercourant.report import POINT_CANDIDATES, check, witness_for
from hypercourant.sampling import monomials_up_to
from hypercourant.scalar import Polynomial, ScalarField, scalar_text, sharing, sum_of_products
from hypercourant.structures import conjugated, frame_change


def _rho_apply(a: int, n: int, g: ScalarField) -> ScalarField:
    """rho(e_a) g: a partial derivative for frame vectors, zero for frame
    one-forms."""
    if a < n:
        return g.derivative(a)
    return ScalarField.zero(n)


def _frame_pairing(a: int, b: int, n: int) -> Fraction:
    """<e_a, e_b> on the frame: 1/2 when the two indices pair a coordinate
    vector with its dual form, else 0."""
    if abs(a - b) == n:
        return Fraction(1, 2)
    return Fraction(0)


def leibniz_dorfman(x: GSection, y: GSection) -> GSection:
    """Dorfman bracket via frame decomposition and the Leibniz rules only."""
    n = x.dim
    frame = basis_sections(n)
    fx = x.components
    gy = y.components
    out = GSection.zero(n)
    for a in range(2 * n):
        fa = fx[a]
        if fa.is_zero():
            continue
        dfa = GSection(VectorField.zero(n), exterior_derivative(fa))
        for b in range(2 * n):
            gb = gy[b]
            if gb.is_zero():
                continue
            # [[fa e_a, gb e_b]] with [[e_a, e_b]] = 0
            out = out + frame[b].smul(fa * _rho_apply(a, n, gb))
            out = out - frame[a].smul(gb * _rho_apply(b, n, fa))
            pair = _frame_pairing(a, b, n)
            if pair:
                out = out + dfa.smul(gb * ScalarField.const(n, 2 * pair))
    return out


def corrupted_dorfman(s: GSection, t: GSection) -> GSection:
    """The Dorfman bracket with the sign of its i_Y d xi term flipped.  It
    calls the engine's dorfman as bound at import, so it stays the mutant
    while courant.dorfman is patched to it."""
    n = s.dim
    flip = interior_product(t.vec, exterior_derivative(s.form))
    return dorfman(s, t) + GSection._of((ScalarField.zero(n),) * n + (flip + flip).components)


def componentwise_lie_bracket(x: VectorField, y: VectorField) -> VectorField:
    """[X, Y]^k = sum_i (X^i d_i Y^k - Y^i d_i X^k)."""
    _check_dim(x, y)
    n = x.dim
    xs, ys = x.components, y.components
    return VectorField._of(
        tuple(
            sum_of_products(
                n,
                [(xi, yk.derivative(i)) for i, xi in enumerate(xs) if not xi.is_zero()],
                [(yi, xk.derivative(i)) for i, yi in enumerate(ys) if not yi.is_zero()],
            )
            for xk, yk in zip(xs, ys)
        )
    )


def componentwise_lie_derivative(x: VectorField, eta: OneForm) -> OneForm:
    """(L_X eta)_j = sum_i (X^i d_i eta_j + eta_i d_j X^i)."""
    _check_dim(x, eta)
    n = x.dim
    xs, es = x.components, eta.components
    return OneForm._of(
        tuple(
            sum_of_products(
                n,
                [(xi, ej.derivative(i)) for i, xi in enumerate(xs) if not xi.is_zero()]
                + [(ei, xs[i].derivative(j)) for i, ei in enumerate(es) if not ei.is_zero()],
            )
            for j, ej in enumerate(es)
        )
    )


def componentwise_interior_product(y: VectorField, omega: TwoForm) -> OneForm:
    """(i_Y omega)_j = sum_i Y^i omega_ij."""
    _check_dim(y, omega)
    n = y.dim
    return OneForm._of(
        tuple(sum_of_products(n, zip(y.components, col)) for col in zip(*omega.entries))
    )


def componentwise_dorfman(s: GSection, t: GSection) -> GSection:
    """courant.dorfman's formula on the three componentwise operators."""
    x, y = s.vec, t.vec
    form = componentwise_lie_derivative(x, t.form) - componentwise_interior_product(
        y, exterior_derivative(s.form)
    )
    return GSection._of(componentwise_lie_bracket(x, y).components + form.components)


def halves_add(x: GSection, y: GSection) -> GSection:
    return GSection(x.vec + y.vec, x.form + y.form)


def halves_sub(x: GSection, y: GSection) -> GSection:
    return GSection(x.vec - y.vec, x.form - y.form)


def halves_neg(x: GSection) -> GSection:
    return GSection(-x.vec, -x.form)


def halves_smul(x: GSection, f: ScalarField) -> GSection:
    return GSection(x.vec.smul(f), x.form.smul(f))


def pair_form_vector(xi: OneForm, y: VectorField) -> ScalarField:
    """xi(Y) = sum_i xi_i Y^i, one field product at a time."""
    if xi.dim != y.dim:
        raise DimensionMismatch(f"chart dimension {xi.dim} vs {y.dim}")
    products = (a * b for a, b in zip(xi.components, y.components))
    return sum(products, ScalarField.zero(xi.dim))


def halves_pairing(s: GSection, t: GSection) -> ScalarField:
    """<X+xi, Y+eta> = (xi(Y) + eta(X)) / 2."""
    half = ScalarField.const(s.dim, Fraction(1, 2))
    return (pair_form_vector(s.form, t.vec) + pair_form_vector(t.form, s.vec)) * half


def oracle_concomitant(f, g, x: GSection, y: GSection) -> GSection:
    """Eight-term concomitant built on the oracle bracket."""
    br = leibniz_dorfman
    fx, gx = f.apply(x), g.apply(x)
    fy, gy = f.apply(y), g.apply(y)
    b_xy = br(x, y)
    out = br(fx, gy) - f.apply(br(x, gy)) - g.apply(br(fx, y)) + f.apply(g.apply(b_xy))
    out = out + br(gx, fy) - g.apply(br(x, fy)) - f.apply(br(gx, y)) + g.apply(f.apply(b_xy))
    return out


def oracle_first_slot_defect(f, g, fun, x: GSection, y: GSection) -> GSection:
    """N(fX, Y) - f N(X, Y), both sides on the oracle bracket."""
    return oracle_concomitant(f, g, x.smul(fun), y) - oracle_concomitant(f, g, x, y).smul(fun)


def concomitant_linearity_defect(f, g, fun: ScalarField, x: GSection, y: GSection) -> tuple:
    """(N(fX,Y) - f N(X,Y),  N(X,fY) - f N(X,Y)), both computed directly.

    The second component is always zero; the first vanishes when F and G are
    drawn from a certified triple, and is generally nonzero otherwise.
    """
    n0 = concomitant(f, g, x, y)
    first = concomitant(f, g, x.smul(fun), y) - n0.smul(fun)
    second = concomitant(f, g, x, y.smul(fun)) - n0.smul(fun)
    return first, second


def linearity_defect_formula(f, g, fun: ScalarField, x: GSection, y: GSection) -> GSection:
    """Closed form of the first-slot defect:

        2<FX,GY>Df - 2<X,GY>F Df - 2<FX,Y>G Df + 2<X,Y>FG Df
        + (the same four terms with F and G exchanged),

    that is H_{F,G}(X,Y) + H_{G,F}(X,Y) with br(a,b) = 2<a,b>Df, on the
    engine's four-term expression.  Derived by expanding every bracket of
    N(fX, Y) with the two Leibniz rules of the Dorfman bracket.
    """
    two = ScalarField.const(x.dim, 2)
    df = d_map(fun)

    def br(a, b):
        return df.smul(two * pairing(a, b))

    return _four_terms(br, f, g, x, y) + _four_terms(br, g, f, x, y)


def nabla_endo(hk, variant: str, f, x: GSection, y: GSection) -> GSection:
    """(nabla_X F)Y = nabla_X(FY) - F(nabla_X Y)."""
    return nij.connection(hk, variant, x, f.apply(y)) - f.apply(nij.connection(hk, variant, x, y))


def lexicographic_nonzero_point(f: ScalarField) -> tuple:
    """A rational point where the nonzero field f has a nonzero value."""
    n = f.nvars
    for point in product(POINT_CANDIDATES, repeat=n):
        try:
            value = f.evaluate(point)
        except PoleAtPoint:
            continue
        if value != 0:
            return point, value
    raise AssertionError("no witness point found; candidate list too small")


def spanning_family(n: int, degree: int = 1) -> list:
    """Frame sections times all monomials of total degree <= degree."""
    basis = basis_sections(n)
    family = []
    for mono in monomials_up_to(n, degree):
        coeff = ScalarField.from_polynomial(Polynomial(n, {mono: 1}))
        for e in basis:
            family.append(e.smul(coeff))
    return family


def family_statuses(hk, family: list) -> dict:
    """Vanishing of the six concomitants over all ordered pairs of `family`,
    in row-major order; the first nonzero residual of a concomitant is its
    witness, labelled as the engine labels it."""
    members = hk.members()
    out = {}
    for key in CONCOMITANT_KEYS:
        f, g = members[key[0]], members[key[1]]
        out[key] = ConcomitantStatus()
        pairs = ((xi, yi) for xi in range(len(family)) for yi in range(len(family)))
        for xi, yi in pairs:
            residual = concomitant(f, g, family[xi], family[yi])
            w = witness_for(residual, context=f"N[{key[0]},{key[1]}] on family pair ({xi}, {yi})")
            if w is not None:
                out[key] = ConcomitantStatus(w)
                break
    return out


def loop_connection_laws(hk, variant: str, inputs) -> list:
    """The connection laws of one variant, one loop over the inputs."""
    out = []
    for t, x, y, fun in inputs:
        f_nab = nij.connection(hk, variant, x, y).smul(fun)
        r1 = nij.connection(hk, variant, x.smul(fun), y) - f_nab
        r2 = nij.connection(hk, variant, x, y.smul(fun)) - y.smul(anchor_apply(x, fun)) - f_nab
        r2 = r2 + nij.delta(hk, fun, x, y)
        out.append(check(f"connection-law-tensorial[{variant}]", r1, t))
        out.append(check(f"connection-law-leibniz-delta[{variant}]", r2, t))
    return out


def loop_identities(hk, inputs) -> list:
    """The four identities of the primary connection, one scope per input."""
    half = ScalarField.const(hk.n, Fraction(1, 2))
    i, j, k = hk.i, hk.j, hk.k
    out = []
    for t, x, y, _ in inputs:
        with sharing(_all_but_images):
            nab_xy = nij.connection(hk, "ijk", x, y)
            r = nij.connection(hk, "ijk", x, _image(j, y)) - _image(j, nab_xy)
            out.append(check("nabla-j-vanishes", r, t))

            nij_y = nij.concomitant(i, j, x, y)
            nij_iy = nij.concomitant(i, j, x, _image(i, y))
            r = (
                nij.connection(hk, "ijk", x, _image(i, y))
                - _image(i, nab_xy)
                - _image(k, nij_iy).smul(half)
                - _image(j, nij_y).smul(half)
            )
            out.append(check("nabla-i-concomitant-formula", r, t))

            lhs = _bracket(x, y) + _image(k, nij_y).smul(half)
            rhs = nab_xy - nij.connection(hk, "ijk", y, x) + d_map(pairing(x, y))
            for endo in (i, j, k):
                rhs = rhs - _image(endo, d_map(pairing(x, _image(endo, y))))
            out.append(check("bracket-decomposition", lhs - rhs, t))

            r = nij_y + nij.concomitant(i, j, y, x)
            out.append(check("concomitant-skew", r, t))
    return out


def loop_delta_properties(hk, inputs) -> list:
    """Delta_f compatibility with I, J, K and its symmetric part."""
    two = ScalarField.const(hk.n, 2)
    out = []
    for t, x, y, fun in inputs:
        with sharing(_all_but_images):
            base = nij.delta(hk, fun, x, y)
            for name, endo in hk.members().items():
                r = nij.delta(hk, fun, x, _image(endo, y)) - _image(endo, base)
                out.append(check(f"delta-compat-{name.lower()}", r, t))
            r = base + nij.delta(hk, fun, y, x) - d_map(fun).smul(two * pairing(x, y))
            out.append(check("delta-symmetric-part", r, t))
    return out


def loop_theorem_flags(hk, inputs) -> tuple:
    """(connections agree, {I, J, K: parallel}, torsion formula holds) over
    the inputs."""
    connections_agree = torsion_ok = True
    parallel = {"I": True, "J": True, "K": True}
    for _, x, y, _ in inputs:
        with sharing(_all_but_images):
            base = nij.connection(hk, "ijk", x, y)
            connections_agree = connections_agree and all(
                (base - nij.connection(hk, v, x, y)).is_zero() for v in ("jki", "kij")
            )
            for name, endo in hk.members().items():
                parallel[name] = parallel[name] and (
                    nij.connection(hk, "ijk", x, _image(endo, y)) - _image(endo, base)
                ).is_zero()
            torsion_ok = torsion_ok and nij.torsion_formula_residual(hk, "ijk", x, y).is_zero()
    return connections_agree, parallel, torsion_ok


def _matrix(rows, n: int) -> tuple:
    """A matrix of grammar text as ScalarFields on the n-dimensional chart."""
    return tuple(tuple(parse_scalar(entry, n) for entry in row) for row in rows)


def b_field(b) -> tuple:
    """(e^B, e^-B) as GEndos for the 2-form B with entries B[i][j]:
    (X, xi) |-> (X, xi +- i_X B), the C block C[j][i] = B[i][j]."""
    n = len(b)
    one, zero = mat_identity(n), mat_zero(n)
    c = mat_transpose(b)
    return GEndo(one, zero, c, one), GEndo(one, zero, mat_neg(c), one)


# D phi for phi(x) = (x1 + x2^2, x2 + x3 x4, x3 + x4^3, x4), unitriangular,
# and its polynomial inverse M, so that conjugating by frame_change(M, D phi)
# is the pullback phi^* hk of a triple with constant entries.
PULLBACK_JACOBIAN = (
    ("1", "2*x2", "0", "0"),
    ("0", "1", "x4", "x3"),
    ("0", "0", "1", "3*x4^2"),
    ("0", "0", "0", "1"),
)
PULLBACK_FRAME = (
    ("1", "-2*x2", "2*x2*x4", "2*x2*x3 - 6*x2*x4^3"),
    ("0", "1", "-1*x4", "3*x4^3 - x3"),
    ("0", "0", "1", "-3*x4^2"),
    ("0", "0", "0", "1"),
)

# M = 1 + x3 E12 + x1 E34 and its inverse; no map has M^-1 as its Jacobian,
# whose first row dx1 - x3 dx2 is not closed.
NON_JACOBIAN_FRAME = (
    ("1", "x3", "0", "0"),
    ("0", "1", "0", "0"),
    ("0", "0", "1", "x1"),
    ("0", "0", "0", "1"),
)
NON_JACOBIAN_INVERSE = (
    ("1", "-1*x3", "0", "0"),
    ("0", "1", "0", "0"),
    ("0", "0", "1", "-1*x1"),
    ("0", "0", "0", "1"),
)


def pullback_frame(hk):
    """The pullback of a triple with constant entries along phi."""
    m, m_inv = _matrix(PULLBACK_FRAME, hk.n), _matrix(PULLBACK_JACOBIAN, hk.n)
    return conjugated(hk, *frame_change(m, m_inv))


def non_jacobian_conjugate(hk):
    """hk conjugated by the unitriangular M that is no Jacobian's inverse."""
    m, m_inv = _matrix(NON_JACOBIAN_FRAME, hk.n), _matrix(NON_JACOBIAN_INVERSE, hk.n)
    return conjugated(hk, *frame_change(m, m_inv))


# B = d(x1 x2 dx3) = x2 dx1^dx3 + x1 dx2^dx3, closed, and B = x1 dx2^dx3,
# whose dB = dx1^dx2^dx3 is not; the matrices B[i][j] for b_field.
CLOSED_B = _matrix((("0", "0", "x2", "0"), ("0", "0", "x1", "0"), ("-1*x2", "-1*x1", "0", "0"), ("0",) * 4), 4)
NON_CLOSED_B = _matrix((("0",) * 4, ("0", "0", "x1", "0"), ("0", "-1*x1", "0", "0"), ("0",) * 4), 4)


def _mat_sum(a, b) -> tuple:
    return tuple(tuple(f + g for f, g in zip(ra, rb)) for ra, rb in zip(a, b))


def unitriangular_frame(nil) -> tuple:
    """(1 + N, (1 + N)^-1) for N strictly upper triangular, hence nilpotent:
    the inverse is the sum over k < n of (-N)^k."""
    one = mat_identity(len(nil))
    inverse = power = one
    for _ in range(len(nil) - 1):
        power = mat_mul(power, mat_neg(nil))
        inverse = _mat_sum(inverse, power)
    return _mat_sum(one, nil), inverse


def triangular_frame(polys) -> tuple:
    """(M, D phi) for phi_i = x_i + p_i, where p_i = polys[i] depends on
    x_{i+1}.. only: D phi = 1 + N with N strictly upper triangular, and
    M = (D phi)^-1."""
    n = len(polys)
    d_phi, m = unitriangular_frame(tuple(tuple(p.derivative(j) for j in range(n)) for p in polys))
    return m, d_phi


def is_jacobian(m) -> bool:
    """Whether the polynomial matrix m is D phi for a polynomial map phi: a
    closed polynomial 1-form on the chart is exact, so exactly when every
    row of m is closed."""
    return all(e.is_zero() for row in m for d_row in exterior_derivative(OneForm(row)).entries for e in d_row)


def _renamed(f: ScalarField, shift: int, n: int) -> ScalarField:
    """f on the n-dimensional chart with x_k renamed x_{k + shift}."""
    return parse_scalar(re.sub(r"x(\d+)", lambda m: f"x{int(m.group(1)) + shift}", scalar_text(f)), n)


def product_triple(first, second):
    """The block-diagonal triple of first x second on the chart of n1 + n2
    coordinates, second's renamed x_{n1+1}.."""
    n1, n = first.n, first.n + second.n
    zero = ScalarField.zero(n)

    def block_sum(a, b) -> tuple:
        top = [[_renamed(f, 0, n) for f in row] + [zero] * second.n for row in a]
        low = [[zero] * n1 + [_renamed(f, n1, n) for f in row] for row in b]
        return tuple(map(tuple, top + low))

    def member(f, g):
        fb, gb = f.blocks(), g.blocks()
        return GEndo(*(block_sum(fb[k], gb[k]) for k in "ABCD"))

    return HKTriple.certify(member(first.i, second.i), member(first.j, second.j))


def _ad_matrices(brackets: dict, n: int) -> list:
    """ad_{e_a} as integer matrices, ad[a][m][b] = c^m_ab, from `brackets`
    {(a, b): {m: c}} for [e_a, e_b] = sum_m c e_m, indices from 1."""
    ad = [[[0] * n for _ in range(n)] for _ in range(n)]
    for (a, b), image in brackets.items():
        for m, c in image.items():
            ad[a - 1][m - 1][b - 1] += c
            ad[b - 1][m - 1][a - 1] -= c
    return ad


def _nilpotent_series(ad_x, coeffs) -> tuple:
    """sum_k coeffs[k] ad_x^k for the nilpotent n x n matrix ad_x, k < n."""
    n = len(ad_x)
    out = power = mat_identity(n)
    for c in coeffs[1:n]:
        power = mat_mul(power, ad_x)
        out = _mat_sum(out, tuple(tuple(f * ScalarField.const(n, c) for f in row) for row in power))
    return out


def _algebraic_outcome(ad: list, base) -> tuple:
    """(pattern, connections agree, {I, J, K: parallel}, torsion formula) of
    the constant triple `base` on g + g*, decided on the constant frame with
    the bracket [[u + a, v + b]] = [u, v] - b ad_u + a ad_v.  The pattern
    lists II JJ KK IJ JK KI, 0 for a vanishing concomitant, N otherwise.
    Every value is an integer vector: the connection's factor -1/2 is
    dropped, as a flag only asks whether a value is zero, and the torsion
    formula's right side D<X,FY> is zero on constant sections."""
    n = len(ad)
    origin = (0,) * n
    members = {}
    for name, endo in base.members().items():
        values = [[f.evaluate(origin) for f in row] for row in endo.matrix]
        assert all(v.denominator == 1 for row in values for v in row), "base must have integer entries"
        members[name] = [[int(v) for v in row] for row in values]

    def apply(m, s):
        return tuple(sum(r * c for r, c in zip(row, s)) for row in m)

    def lin(*terms):
        """The sum of c s over the (c, s) pairs."""
        return tuple(sum(c * s[i] for c, s in terms) for i in range(2 * n))

    @cache
    def ad_of(u):
        return tuple(tuple(sum(u[a] * ad[a][m][b] for a in range(n)) for b in range(n)) for m in range(n))

    @cache
    def br(s, t):
        (u, alpha), (v, beta) = (s[:n], s[n:]), (t[:n], t[n:])
        ad_u, ad_v = ad_of(u), ad_of(v)
        form = tuple(sum(alpha[m] * ad_v[m][j] - beta[m] * ad_u[m][j] for m in range(n)) for j in range(n))
        return apply(ad_u, v) + form

    def four_terms(f, g, x, y):
        fx, gy = apply(f, x), apply(g, y)
        fg_xy = apply(f, apply(g, br(x, y)))
        return lin((1, br(fx, gy)), (-1, apply(f, br(x, gy))), (-1, apply(g, br(fx, y))), (1, fg_xy))

    def nab(variant, x, y):
        """-2 nabla_X Y for the rotation (P, Q, R) the variant names."""
        p, q, r = (members[c.upper()] for c in variant)
        return apply(r, four_terms(q, p, y, x))

    frame = [tuple(int(i == a) for i in range(2 * n)) for a in range(2 * n)]
    pairs = list(product(frame, repeat=2))
    zero = (0,) * (2 * n)

    def vanishes(f, g):
        f, g = members[f], members[g]
        return all(lin((1, four_terms(f, g, x, y)), (1, four_terms(g, f, x, y))) == zero for x, y in pairs)

    pattern = "".join("0" if vanishes(f, g) else "N" for f, g in CONCOMITANT_KEYS)
    agree = all(nab("ijk", x, y) == nab("jki", x, y) == nab("kij", x, y) for x, y in pairs)
    parallel = {
        name: all(nab("ijk", x, apply(m, y)) == apply(m, nab("ijk", x, y)) for x, y in pairs)
        for name, m in members.items()
    }
    # -2 T(X,Y) = nab(X,Y) - nab(Y,X) + [[X,Y]] - [[Y,X]]
    torsion = all(lin((1, nab("ijk", x, y)), (-1, nab("ijk", y, x)), (1, br(x, y)), (-1, br(y, x))) == zero
                  for x, y in pairs)
    return pattern, agree, parallel, torsion


def left_invariant(brackets: dict, base) -> tuple:
    """(the left-invariant triple, its algebraic outcome) for the nilpotent
    Lie algebra g with `brackets` ({(a, b): {m: c}} for [e_a, e_b] = sum_m
    c e_m, indices from 1) and the constant triple `base` on g + g*.

    In exponential coordinates the left-invariant frame is X_a = E e_a with
    E = ad_x / (1 - e^-ad_x), and E^-1 = (1 - e^-ad_x) / ad_x; both series
    stop, as ad_x is nilpotent.  The triple is base conjugated by
    frame_change(E, E^-1), and the outcome is _algebraic_outcome's."""
    n = base.n
    ad = _ad_matrices(brackets, n)
    x = [ScalarField.coordinate(n, a) for a in range(n)]
    ad_x = tuple(tuple(sum((x[a] * ScalarField.const(n, ad[a][m][b]) for a in range(n) if ad[a][m][b]),
                           ScalarField.zero(n)) for b in range(n)) for m in range(n))
    # (1 - e^-z) / z = sum_k (-z)^k / (k+1)!, and its reciprocal series
    inverse_coeffs = [Fraction((-1) ** k, factorial(k + 1)) for k in range(n)]
    coeffs = [Fraction(1)]
    for k in range(1, n):
        coeffs.append(-sum(inverse_coeffs[j] * coeffs[k - j] for j in range(1, k + 1)))
    e, e_inv = _nilpotent_series(ad_x, coeffs), _nilpotent_series(ad_x, inverse_coeffs)
    assert mat_mul(e, e_inv) == mat_identity(n)
    fields = [VectorField(row[a] for row in e) for a in range(n)]
    for a, b in product(range(n), repeat=2):
        expect = sum((fields[m].smul(ScalarField.const(n, ad[a][m][b])) for m in range(n)), VectorField.zero(n))
        assert lie_bracket(fields[a], fields[b]) == expect, f"[X_{a + 1}, X_{b + 1}] is not left-invariant"
    return conjugated(base, *frame_change(e, e_inv)), _algebraic_outcome(ad, base)


def _cnorm(c):
    """An exact rational as the engine's terms give it: int where integral,
    Fraction otherwise."""
    if type(c) is int or c.denominator != 1:
        return c
    return c.numerator


def _grlex(item) -> tuple:
    mono = item[0]
    return (sum(mono), mono)


def grlex_terms(d: dict) -> tuple:
    """The nonzero terms of an exponent-tuple dict, sorted by decreasing
    graded-lex order with the grlex key, without the engine's packing."""
    terms = [(m, c) for m, c in d.items() if c]
    terms.sort(key=_grlex, reverse=True)
    return tuple(terms)


def schoolbook_mul(self: Polynomial, other: Polynomial) -> tuple:
    """Terms of the product, term by term on exponent tuples, sorted by the
    grlex key."""
    self._check(other)
    out: dict = {}
    for m1, c1 in self.terms:
        for m2, c2 in other.terms:
            m = tuple(a + b for a, b in zip(m1, m2))
            c = c1 * c2
            v = out.get(m)
            out[m] = c if v is None else v + c
    return grlex_terms({m: _cnorm(c) for m, c in out.items()})


def dict_add(self: Polynomial, other: Polynomial) -> tuple:
    """Terms of the sum: a dict of both operands, sorted by the grlex key."""
    self._check(other)
    out = dict(self.terms)
    for m, c in other.terms:
        out[m] = _cnorm(out.get(m, 0) + c)
    return grlex_terms(out)


def tuple_derivative(self: Polynomial, var: int) -> tuple:
    """Terms of the partial derivative on exponent tuples, sorted by the grlex
    key."""
    out = {}
    for m, c in self.terms:
        e = m[var]
        if e:
            dm = m[:var] + (e - 1,) + m[var + 1:]
            out[dm] = _cnorm(out.get(dm, 0) + c * e)
    return grlex_terms(out)


def termwise_evaluate(self: Polynomial, point) -> Fraction:
    """The value at a point: each decoded term's coefficient times its
    coordinate powers, summed in Fraction arithmetic."""
    if len(point) != self.nvars:
        raise DimensionMismatch(f"point has {len(point)} coordinates, chart has {self.nvars}")
    total = Fraction(0)
    for m, c in self.terms:
        term = Fraction(c)
        for e, v in zip(m, point):
            if e:
                term *= Fraction(v) ** e
        total += term
    return total

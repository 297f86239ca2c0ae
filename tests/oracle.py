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

A section is stored as one tuple of its 2n components; its arithmetic and
its pairing are checked against the formulas on the two halves, the vector
field X and the 1-form xi, with the pairing (xi(Y) + eta(X))/2 taken through
pair_form_vector.

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

Polynomial arithmetic, which the engine computes on packed monomials, is
checked against the schoolbook product, the dict sum and the derivative on
exponent tuples; each oracle returns its terms in the order of its own grlex
sort key, so the comparison checks the engine's term order as well.
Polynomial.evaluate, which substitutes one coordinate at a time, is checked
against the sum of its decoded terms' values in Fraction arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from hypercourant import nijenhuis as nij
from hypercourant.cartan import VectorField, exterior_derivative, pair_form_vector
from hypercourant.courant import GSection, anchor_apply, basis_sections, d_map, pairing
from hypercourant.errors import DimensionMismatch, PoleAtPoint
from hypercourant.nijenhuis import (
    CONCOMITANT_KEYS,
    ConcomitantStatus,
    _bracket,
    _image,
    _sharing,
    concomitant,
)
from hypercourant.report import POINT_CANDIDATES, check, witness_for
from hypercourant.sampling import monomials_up_to
from hypercourant.scalar import Polynomial, ScalarField


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
                out = out + dfa.smul(gb.scale(2 * pair))
    return out


def halves_add(x: GSection, y: GSection) -> GSection:
    return GSection(x.vec + y.vec, x.form + y.form)


def halves_sub(x: GSection, y: GSection) -> GSection:
    return GSection(x.vec - y.vec, x.form - y.form)


def halves_neg(x: GSection) -> GSection:
    return GSection(-x.vec, -x.form)


def halves_smul(x: GSection, f: ScalarField) -> GSection:
    return GSection(x.vec.smul(f), x.form.smul(f))


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
        out[key] = ConcomitantStatus(True)
        pairs = ((xi, yi) for xi in range(len(family)) for yi in range(len(family)))
        for xi, yi in pairs:
            residual = concomitant(f, g, family[xi], family[yi])
            w = witness_for(residual, context=f"N[{key[0]},{key[1]}] on family pair ({xi}, {yi})")
            if w is not None:
                out[key] = ConcomitantStatus(False, w)
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
        with _sharing():
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
        with _sharing():
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
        with _sharing():
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

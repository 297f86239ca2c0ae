"""The standard Courant algebroid on TM (+) T*M over a coordinate chart.

A section X + xi is its 2n components over the chart, vector part first, and
its sums, negation and scaling are those of the cartan module's component
tuples; vec and form are views of the two halves.  The anchor projects onto
the vector part, the pairing is <X+xi, Y+eta> = (xi(Y) + eta(X))/2, and the
Dorfman bracket is

    [[X+xi, Y+eta]] = [X, Y] + (L_X eta - i_Y d xi).

The Dorfman bracket is the primitive here; the Courant bracket is derived as
its skew-symmetric part.  verify_axioms checks the six defining relations
plus the Dorfman = Courant + D<,> decomposition on seeded random sections,
reducing every residual to an exact zero.

GSection(vec, form) and from_components validate; every section the engine
builds is one tuple of 2n components passed to the unchecked GSection._of.
A section is a slotted value like a Polynomial, with the equality, hash and
`_of` of the cartan module's component tuples; its hash is taken once, as a
section is a memo key of the sharing scope.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from .cartan import (
    OneForm,
    VectorField,
    _Components,
    exterior_derivative,
    interior_product,
    lie_bracket,
    lie_derivative,
)
from .errors import DimensionMismatch
from .report import check
from .sampling import random_scalar, suite_rng
from .scalar import ScalarField, sum_of_products


class GSection(_Components):
    """A section X + xi of the generalized tangent bundle: its 2n components,
    the vector part X first."""

    __slots__ = ()
    _parts = ("vec", "form")

    def __init__(self, vec: VectorField, form: OneForm):
        if not (isinstance(vec, VectorField) and isinstance(form, OneForm)):
            raise TypeError("a section is a VectorField and a OneForm, in that order")
        if vec.dim != form.dim:
            raise DimensionMismatch("vector and form parts live on different charts")
        self.components = vec.components + form.components
        self._hash = None

    @property
    def vec(self) -> VectorField:
        return VectorField._of(self.components[: self.dim])

    @property
    def form(self) -> OneForm:
        return OneForm._of(self.components[self.dim :])

    @classmethod
    def from_components(cls, components) -> "GSection":
        """Build from 2n scalar components (vector part first)."""
        components = tuple(components)
        if len(components) % 2:
            raise DimensionMismatch("expected 2n components")
        n = len(components) // 2
        return cls(VectorField(components[:n]), OneForm(components[n:]))

    def half(self) -> "GSection":
        return self.smul(ScalarField.const(self.dim, Fraction(1, 2)))


def basis_sections(n: int) -> tuple:
    """The 2n frame sections: d/dx_1 .. d/dx_n, then dx_1 .. dx_n."""
    return tuple(GSection.basis(n, a) for a in range(2 * n))


def anchor(s: GSection) -> VectorField:
    """Projection onto the tangent component."""
    return s.vec


def anchor_apply(s: GSection, f: ScalarField) -> ScalarField:
    """rho(s) f = sum_i s.vec^i d_i f."""
    n = s.dim
    if f.nvars != n:
        raise DimensionMismatch("scalar lives on a different chart")
    return sum_of_products(
        n, [(xi, f.derivative(i)) for i, xi in enumerate(s.components[:n]) if not xi.is_zero()]
    )


def pairing(s: GSection, t: GSection) -> ScalarField:
    """<X+xi, Y+eta> = (xi(Y) + eta(X)) / 2: the 2n products of a component
    of s with the partner component of t, summed and halved."""
    n = s.dim
    u = t.components
    half = ScalarField.const(n, Fraction(1, 2))
    return sum_of_products(n, zip(s.components, u[n:] + u[:n])) * half


def d_map(f: ScalarField) -> GSection:
    """D f = (0, df), characterized by <Df, s> = rho(s) f / 2."""
    n = f.nvars
    return GSection._of((ScalarField.zero(n),) * n + exterior_derivative(f).components)


def dorfman(s: GSection, t: GSection) -> GSection:
    """[[s, t]] = [X, Y] + (L_X eta - i_Y d xi)."""
    x, y = s.vec, t.vec
    form = lie_derivative(x, t.form) - interior_product(y, exterior_derivative(s.form))
    return GSection._of(lie_bracket(x, y).components + form.components)


def _corrupted_dorfman(s: GSection, t: GSection) -> GSection:
    # test-only mutant: the sign of the i_Y d xi term is flipped
    n = s.dim
    flip = interior_product(t.vec, exterior_derivative(s.form))
    return dorfman(s, t) + GSection._of((ScalarField.zero(n),) * n + (flip + flip).components)


def courant_bracket(s: GSection, t: GSection) -> GSection:
    """Skew-symmetric part ([[s, t]] - [[t, s]]) / 2."""
    return (dorfman(s, t) - dorfman(t, s)).half()


def random_section(rng: Random, n: int, degree: int) -> GSection:
    """2n polynomial components, coefficients uniform in -3..3."""
    comps = tuple(random_scalar(rng, n, degree) for _ in range(2 * n))
    return GSection.from_components(comps)


# ---------------------------------------------------------------------------
# axiom verification
# ---------------------------------------------------------------------------

AXIOM_IDS = (
    "axiom-1-left-jacobi",
    "axiom-2-anchor-homomorphism",
    "axiom-3-anchored-leibniz",
    "axiom-4-symmetric-part",
    "axiom-5-d-kernel",
    "axiom-6-pairing-invariance",
    "dorfman-decomposition",
)


def _axiom_trial(br, n: int, degree: int, rng: Random, trial: int) -> list:
    x = random_section(rng, n, degree)
    y = random_section(rng, n, degree)
    z = random_section(rng, n, degree)
    f = random_scalar(rng, n, degree)
    two = ScalarField.const(n, 2)

    bxy, byx, bxz = br(x, y), br(y, x), br(x, z)

    reports = []
    r1 = br(x, br(y, z)) - br(bxy, z) - br(y, bxz)
    reports.append(check(AXIOM_IDS[0], r1, trial))

    r2 = anchor(bxy) - lie_bracket(anchor(x), anchor(y))
    reports.append(check(AXIOM_IDS[1], r2, trial))

    r3 = br(x, y.smul(f)) - y.smul(anchor_apply(x, f)) - bxy.smul(f)
    reports.append(check(AXIOM_IDS[2], r3, trial))

    r4 = bxy + byx - d_map(pairing(x, y)).smul(two)
    reports.append(check(AXIOM_IDS[3], r4, trial))

    r5 = br(d_map(f), x)
    reports.append(check(AXIOM_IDS[4], r5, trial))

    r6 = anchor_apply(x, pairing(y, z)) - pairing(bxy, z) - pairing(y, bxz)
    reports.append(check(AXIOM_IDS[5], r6, trial))

    r7 = bxy - (bxy - byx).half() - d_map(pairing(x, y))
    reports.append(check(AXIOM_IDS[6], r7, trial))
    return reports


def verify_axioms(
    dim: int,
    degree: int = 2,
    trials: int = 10,
    seed: int = 0,
    *,
    _corrupt_bracket: bool = False,
) -> list:
    """Check axioms (1)-(6) and the bracket decomposition on `trials` seeded
    random section triples.  Failures are reported, never raised.

    `_corrupt_bracket` swaps in a sign-flipped bracket; it exists only so the
    test suites can demonstrate that a broken bracket is detected.
    """
    if dim < 1:
        raise DimensionMismatch("chart dimension must be at least 1")
    br = _corrupted_dorfman if _corrupt_bracket else dorfman
    return [
        r
        for t in range(trials)
        for r in _axiom_trial(br, dim, degree, suite_rng(seed, f"axioms-{t}"), t)
    ]

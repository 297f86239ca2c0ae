"""Check outcomes and failure witnesses.

A failed identity is reported, never raised, and always carries two
independently checkable pieces of evidence: the nonzero residual printed in
the scalar grammar, and one rational point where that residual evaluates to
a nonzero exact value.

Witnesses and reports are NamedTuple records, built once and never changed.
A record holds evidence only and computes its verdict: a check passes
exactly when it carries no witness.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, count
from typing import NamedTuple

from .scalar import ScalarField, coeff_text, scalar_text

# Candidate coordinate values for point witnesses, tried in this order and
# then extended on demand by 50, 51, 52, ...  For one variable at most
# deg(num) + deg(den) in that variable can fail, so the search below always
# ends.  When every variable's degree in num plus den is below the list
# length, the point found is the lexicographically first grid point of
# POINT_CANDIDATES^n where num * den is nonzero (Combinatorial
# Nullstellensatz: such a polynomial cannot vanish on the whole grid).
POINT_CANDIDATES = tuple(
    [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-2)]
    + [Fraction(1, 2), Fraction(-1, 2), Fraction(3), Fraction(-3), Fraction(3, 2)]
    + [Fraction(-3, 2), Fraction(5), Fraction(-5), Fraction(1, 3), Fraction(-1, 3)]
    + [Fraction(k) for k in range(4, 50) if k != 5]
)


class Witness(NamedTuple):
    """Evidence that a residual expression is not identically zero."""

    label: str
    expression: str
    point: tuple
    value: str

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "expression": self.expression,
            "point": list(self.point),
            "value": self.value,
        }


class CheckReport(NamedTuple):
    """Outcome of one identity check; it fails exactly when it has a witness."""

    check_id: str
    witness: Witness | None = None
    trial: int | None = None

    @property
    def passed(self) -> bool:
        return self.witness is None

    def to_dict(self) -> dict:
        out = {"check-id": self.check_id, "pass": self.passed}
        if self.trial is not None:
            out["trial"] = self.trial
        if self.witness is not None:
            out["witness"] = self.witness.to_dict()
        return out


def find_nonzero_point(f: ScalarField) -> tuple:
    """A rational point where the nonzero field f has a nonzero value.

    Coordinates are fixed in order: x_i takes the first candidate that
    leaves both numerator and denominator nonzero after substitution.
    """
    if f.is_zero():
        raise ValueError("the zero field has no nonzero point")
    num, den = f.num, f.den
    point = []
    for var in range(f.nvars):
        for c in chain(POINT_CANDIDATES, map(Fraction, count(50))):
            num_c = num.substitute(var, c)
            if num_c.is_zero():
                continue
            den_c = den.substitute(var, c)
            if not den_c.is_zero():
                break
        num, den = num_c, den_c
        point.append(c)
    point = tuple(point)
    return point, f.evaluate(point)


def nonzero_witness(label: str, f: ScalarField) -> Witness:
    """The witness that the nonzero field f is not identically zero."""
    point, value = find_nonzero_point(f)
    return Witness(
        label=label,
        expression=scalar_text(f),
        point=tuple(str(v) for v in point),
        value=coeff_text(value),
    )


def _residual_components(residual):
    """Yield (label, ScalarField) pairs for a scalar field, or for a value
    whose components fall into the blocks its _parts names."""
    if isinstance(residual, ScalarField):
        yield "scalar", residual
        return
    parts = getattr(residual, "_parts", None)
    if parts is None:
        raise TypeError(f"unsupported residual type {type(residual).__name__}")
    n = residual.dim
    for k, f in enumerate(residual.components):
        yield f"{parts[k // n]}[{k % n}]", f


def witness_for(residual, context: str = "") -> Witness | None:
    """Build a witness from the first nonzero component of a residual, or
    None when the residual is identically zero."""
    for label, f in _residual_components(residual):
        if f.is_zero():
            continue
        return nonzero_witness(f"{context}.{label}" if context else label, f)
    return None


def check(check_id: str, residual, trial: int | None = None) -> CheckReport:
    """Report whether a residual is identically zero."""
    return CheckReport(check_id, witness_for(residual), trial)

"""Endomorphisms of TM (+) T*M, lifts, and structure certification.

A GEndo is one 2n x 2n matrix in 2x2 block form acting on component columns:

    (X, xi)  |->  (A X + B xi, C X + D xi)

with A : tangent -> tangent, B : cotangent -> tangent, C : tangent ->
cotangent, D : cotangent -> cotangent.  The dual map of a tangent
endomorphism is its transpose in the coordinate frame, which is forced by
dx^i(j d/dx_k) = j^i_k.

Every entry of a product or an image is one call to scalar.sum_of_products,
which skips zero entries, so the mostly-zero quaternion and lift blocks cost
no products.

Certification checks orthogonality against the canonical pairing on the 2n
frame sections (enough, since both sides are bilinear over scalars) and the
quaternionic relations I^2 = J^2 = K^2 = IJK = -1 as exact matrix
identities.

The GEndo constructor and the lifts validate their blocks (cartan.check_matrix);
products and sums go through the unchecked GEndo._of, and an image or a
column is its tuple of 2n components passed to the unchecked GSection._of.
A GEndo is a slotted value in the idiom of the scalar and Cartan layers,
with its hash cached in a slot; an HKTriple is a NamedTuple record.
"""

from __future__ import annotations

from typing import NamedTuple

from .cartan import TwoForm, check_matrix
from .courant import GSection, basis_sections, pairing
from .errors import (
    DimensionMismatch,
    NotAlmostComplex,
    NotInverse,
    UncertifiedStructure,
)
from .report import CheckReport, Witness, nonzero_witness
from .scalar import ScalarField, sum_of_products


def mat_identity(n: int) -> tuple:
    one = ScalarField.one(n)
    zero = ScalarField.zero(n)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def mat_zero(n: int) -> tuple:
    zero = ScalarField.zero(n)
    return tuple((zero,) * n for _ in range(n))


def mat_mul(a, b) -> tuple:
    nvars = a[0][0].nvars
    cols = tuple(zip(*b))
    return tuple(tuple(sum_of_products(nvars, zip(row, col)) for col in cols) for row in a)


def mat_add(a, b) -> tuple:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_neg(a) -> tuple:
    return tuple(tuple(-x for x in row) for row in a)


def mat_scale(a, f: ScalarField) -> tuple:
    return tuple(tuple(f * x for x in row) for row in a)


def mat_transpose(a) -> tuple:
    return tuple(tuple(row) for row in zip(*a))


def mat_eq(a, b) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


class GEndo:
    """Endomorphism of the generalized tangent bundle: one 2n x 2n matrix
    [[A, B], [C, D]] acting on the 2n components of a section."""

    __slots__ = ("matrix", "_hash")

    def __init__(self, a, b, c, d):
        n = len(a)
        a, b, c, d = (check_matrix(blk, n) for blk in (a, b, c, d))
        top = tuple(ra + rb for ra, rb in zip(a, b))
        self.matrix = top + tuple(rc + rd for rc, rd in zip(c, d))
        self._hash = None

    @classmethod
    def _of(cls, matrix: tuple) -> "GEndo":
        out = object.__new__(cls)
        out.matrix = matrix
        out._hash = None
        return out

    @property
    def n(self) -> int:
        return len(self.matrix) // 2

    @classmethod
    def identity(cls, n: int) -> "GEndo":
        return cls(mat_identity(n), mat_zero(n), mat_zero(n), mat_identity(n))

    @classmethod
    def zero(cls, n: int) -> "GEndo":
        z = mat_zero(n)
        return cls(z, z, z, z)

    def __eq__(self, other) -> bool:
        return other.__class__ is self.__class__ and self.matrix == other.matrix

    def __hash__(self) -> int:
        # taken once: an endomorphism is a memo key of the sharing scope
        h = self._hash
        if h is None:
            h = self._hash = hash(self.matrix)
        return h

    def __repr__(self) -> str:
        return f"GEndo(matrix={self.matrix!r})"

    def apply(self, s: GSection) -> "GSection":
        if s.dim != self.n:
            raise DimensionMismatch("section and endomorphism chart dimensions differ")
        n, v = self.n, s.components
        return GSection._of(tuple(sum_of_products(n, zip(row, v)) for row in self.matrix))

    def columns(self) -> tuple:
        """The images of the 2n frame sections: F e_a is column a."""
        return tuple(map(GSection._of, zip(*self.matrix)))

    def compose(self, other: "GEndo") -> "GEndo":
        """self after other."""
        if self.n != other.n:
            raise DimensionMismatch("endomorphism dimensions differ")
        return GEndo._of(mat_mul(self.matrix, other.matrix))

    def __matmul__(self, other: "GEndo") -> "GEndo":
        return self.compose(other)

    def __add__(self, other: "GEndo") -> "GEndo":
        if self.n != other.n:
            raise DimensionMismatch("endomorphism dimensions differ")
        return GEndo._of(mat_add(self.matrix, other.matrix))

    def __neg__(self) -> "GEndo":
        return GEndo._of(mat_neg(self.matrix))

    def __sub__(self, other: "GEndo") -> "GEndo":
        return self + (-other)

    def scale(self, f: ScalarField) -> "GEndo":
        return GEndo._of(mat_scale(self.matrix, f))

    def is_zero(self) -> bool:
        return all(f.is_zero() for row in self.matrix for f in row)

    def blocks(self) -> dict:
        n = self.n
        top, bottom = self.matrix[:n], self.matrix[n:]
        return {
            "A": tuple(row[:n] for row in top),
            "B": tuple(row[n:] for row in top),
            "C": tuple(row[:n] for row in bottom),
            "D": tuple(row[n:] for row in bottom),
        }


# ---------------------------------------------------------------------------
# lifts
# ---------------------------------------------------------------------------


def lift_diagonal(j) -> GEndo:
    """Lift a tangent almost complex structure j to diag(-j, j*).

    Requires j^2 = -identity exactly; j* is the transpose in coordinates.
    """
    n = len(j)
    j = check_matrix(j, n)
    if not mat_eq(mat_mul(j, j), mat_neg(mat_identity(n))):
        raise NotAlmostComplex("j^2 is not minus the identity")
    return GEndo(mat_neg(j), mat_zero(n), mat_zero(n), mat_transpose(j))


def lift_symplectic(omega: TwoForm, omega_inv) -> GEndo:
    """Lift a nondegenerate 2-form to the block shape (X, xi) |-> (Vinv xi, -W X).

    omega_inv is supplied, not computed, and must satisfy W * Vinv = identity
    as an exact matrix product of the component matrices.
    """
    n = omega.dim
    w = omega.entries
    v = check_matrix(omega_inv, n)
    if not mat_eq(mat_mul(w, v), mat_identity(n)):
        raise NotInverse("omega * omega_inv is not the identity")
    return GEndo(mat_zero(n), v, mat_neg(w), mat_zero(n))


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------


def is_orthogonal(endo: GEndo) -> CheckReport:
    """Check <F e_a, F e_b> = <e_a, e_b> on all frame pairs, exactly."""
    n = endo.n
    basis = basis_sections(n)
    images = endo.columns()
    for a in range(2 * n):
        for b in range(a, 2 * n):
            residual = pairing(images[a], images[b]) - pairing(basis[a], basis[b])
            if not residual.is_zero():
                w = nonzero_witness(f"pairing defect on frame pair ({a}, {b})", residual)
                return CheckReport("orthogonality", False, witness=w)
    return CheckReport("orthogonality", True)


def _first_matrix_defect(endo: GEndo, expect: GEndo, what: str) -> Witness | None:
    diff = endo - expect
    for name, blk in diff.blocks().items():
        for i, row in enumerate(blk):
            for j, f in enumerate(row):
                if not f.is_zero():
                    return nonzero_witness(f"{what}, block {name}[{i}][{j}]", f)
    return None


def quaternionic_check(i: GEndo, j: GEndo, k: GEndo) -> CheckReport:
    """I^2 = J^2 = K^2 = IJK = -identity, all as exact matrix identities."""
    minus_id = -GEndo.identity(i.n)
    for endo, what in (
        (i @ i, "I^2 + 1"),
        (j @ j, "J^2 + 1"),
        (k @ k, "K^2 + 1"),
        ((i @ j) @ k, "IJK + 1"),
    ):
        w = _first_matrix_defect(endo, minus_id, what)
        if w is not None:
            return CheckReport("quaternionic-relations", False, witness=w)
    return CheckReport("quaternionic-relations", True)


class HKTriple(NamedTuple):
    """A candidate almost hypercomplex structure with its certificates.

    Certification happens at construction and is never mutated; connection
    level operations refuse uncertified triples.
    """

    i: GEndo
    j: GEndo
    k: GEndo
    orthogonality: tuple  # three CheckReports, for I, J, K
    quaternionic: CheckReport

    @property
    def n(self) -> int:
        return self.i.n

    @property
    def certified_orthogonal(self) -> tuple:
        return tuple(r.passed for r in self.orthogonality)

    @property
    def certified_quaternionic(self) -> bool:
        return self.quaternionic.passed

    @property
    def certified(self) -> bool:
        return all(self.certified_orthogonal) and self.certified_quaternionic

    @classmethod
    def certify(cls, i: GEndo, j: GEndo, k: GEndo | None = None) -> "HKTriple":
        """Build and certify a triple; K defaults to I composed with J."""
        if i.n != j.n or (k is not None and k.n != i.n):
            raise DimensionMismatch("triple members have different dimensions")
        if k is None:
            k = i @ j
        orth = (is_orthogonal(i), is_orthogonal(j), is_orthogonal(k))
        quat = quaternionic_check(i, j, k)
        return cls(i, j, k, orth, quat)

    def require_certified(self):
        if not self.certified:
            failures = []
            for name, rep in zip("IJK", self.orthogonality):
                if not rep.passed:
                    failures.append(f"{name} not orthogonal")
            if not self.quaternionic.passed:
                failures.append("quaternionic relations fail")
            raise UncertifiedStructure("; ".join(failures))

    def members(self) -> dict:
        return {"I": self.i, "J": self.j, "K": self.k}

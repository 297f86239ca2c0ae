"""Built-in example structures on R^4.

Three families, used as CLI fixtures and throughout the test suites:

  flat-quaternionic      diagonal lifts of the constant left-multiplication
                         complex structures i and j on R^4 ~ quaternions,
                         with K = I J.  Integrable; every concomitant
                         vanishes.
  holomorphic-symplectic the symplectic lift of omega_2 = dx1^dx4 + dx2^dx3
                         together with the diagonal lift of the standard j
                         (z1 = x1 + i x2, z2 = x3 + i x4), K = I J; here
                         omega_1 + i omega_2 with omega_1 = dx1^dx3 -
                         dx2^dx4 is the constant holomorphic symplectic form
                         dz1^dz2.  Integrable.
  nonintegrable          the flat triple conjugated by the position
                         dependent frame change diag(A, (A^T)^-1) with
                         A = diag(1, 1+x1^2, 1, 1).  Conjugation preserves
                         orthogonality and the quaternionic relations but
                         breaks integrability, so certification passes while
                         concomitants pick up nonzero witnesses.

With the transpose realization of the dual map, composing the two diagonal
lifts gives I J equal to the lift of -(ij), so K is built as I J rather than
as an independent lift; that is the one sign convention under which the
quaternionic relations close.
"""

from __future__ import annotations

from .cartan import TwoForm
from .endo import GEndo, HKTriple, lift_diagonal, lift_symplectic, mat_neg
from .runfile import SUITES
from .scalar import ScalarField, scalar_text

DIM = 4

# Left multiplication by i, j, k on R^4 with coordinates (1, i, j, k).
QUAT_I = ((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0))
QUAT_J = ((0, 0, -1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, -1, 0, 0))
QUAT_K = ((0, 0, 0, -1), (0, 0, -1, 0), (0, 1, 0, 0), (1, 0, 0, 0))

# Real and imaginary parts of dz1 ^ dz2 for z1 = x1 + i x2, z2 = x3 + i x4.
OMEGA_1 = ((0, 0, 1, 0), (0, 0, 0, -1), (-1, 0, 0, 0), (0, 1, 0, 0))
OMEGA_2 = ((0, 0, 0, 1), (0, 0, 1, 0), (0, -1, 0, 0), (-1, 0, 0, 0))

# Multiplication by i in the complex coordinates (z1, z2).
STANDARD_J = ((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0))


def const_matrix(rows, n: int = DIM) -> tuple:
    return tuple(tuple(ScalarField.const(n, v) for v in row) for row in rows)


def _matrix_strings(m) -> list:
    return [[scalar_text(f) for f in row] for row in m]


def flat_quaternionic() -> HKTriple:
    triple = HKTriple.certify(
        lift_diagonal(const_matrix(QUAT_I)),
        lift_diagonal(const_matrix(QUAT_J)),
    )
    return triple


def holomorphic_symplectic() -> HKTriple:
    omega2 = TwoForm(const_matrix(OMEGA_2))
    # constant symplectic matrices here square to -identity, so the inverse
    # matrix is just the negative
    omega2_inv = mat_neg(const_matrix(OMEGA_2))
    i_endo = lift_symplectic(omega2, omega2_inv)
    j_endo = lift_diagonal(const_matrix(STANDARD_J))
    return HKTriple.certify(i_endo, j_endo)


def conjugating_frame() -> tuple:
    """The frame change diag(A, (A^T)^-1), A = diag(1, 1+x1^2, 1, 1), and
    its inverse, as GEndos."""
    n = DIM
    one = ScalarField.one(n)
    x1 = ScalarField.coordinate(n, 0)
    u = one + x1 * x1
    zero = ScalarField.zero(n)

    def diag(entries):
        return tuple(
            tuple(entries[i] if i == j else zero for j in range(n)) for i in range(n)
        )

    a = diag((one, u, one, one))
    a_inv = diag((one, one / u, one, one))
    zblock = tuple((zero,) * n for _ in range(n))
    frame = GEndo(a, zblock, zblock, a_inv)
    frame_inv = GEndo(a_inv, zblock, zblock, a)
    return frame, frame_inv


def nonintegrable_conjugated() -> HKTriple:
    flat = flat_quaternionic()
    frame, frame_inv = conjugating_frame()
    i_c = frame @ flat.i @ frame_inv
    j_c = frame @ flat.j @ frame_inv
    return HKTriple.certify(i_c, j_c)


# ---------------------------------------------------------------------------
# structure files
# ---------------------------------------------------------------------------

def structure_file(name: str) -> dict:
    """The JSON-able structure document for one built-in example."""
    coords = [f"x{k + 1}" for k in range(DIM)]
    if name == "flat-quaternionic":
        return {
            "dimension": DIM,
            "coordinates": coords,
            "structure": {
                "I": {"lift": "diagonal", "j": _matrix_strings(const_matrix(QUAT_I))},
                "J": {"lift": "diagonal", "j": _matrix_strings(const_matrix(QUAT_J))},
            },
            "checks": list(SUITES),
            "options": {"trials": 10, "degree": 2, "seed": 11},
        }
    if name == "holomorphic-symplectic":
        return {
            "dimension": DIM,
            "coordinates": coords,
            "structure": {
                "I": {
                    "lift": "symplectic",
                    "omega": _matrix_strings(const_matrix(OMEGA_2)),
                    "omega_inv": _matrix_strings(mat_neg(const_matrix(OMEGA_2))),
                },
                "J": {"lift": "diagonal", "j": _matrix_strings(const_matrix(STANDARD_J))},
            },
            "checks": list(SUITES),
            "options": {"trials": 10, "degree": 2, "seed": 23},
        }
    if name == "nonintegrable":
        triple = nonintegrable_conjugated()
        structure = {}
        for member, endo in (("I", triple.i), ("J", triple.j)):
            structure[member] = {k: _matrix_strings(v) for k, v in endo.blocks().items()}
        return {
            "dimension": DIM,
            "coordinates": coords,
            "structure": structure,
            "checks": list(SUITES),
            "options": {"trials": 6, "degree": 1, "seed": 37},
        }
    raise KeyError(f"unknown example {name!r}")


EXAMPLE_NAMES = ("flat-quaternionic", "holomorphic-symplectic", "nonintegrable")

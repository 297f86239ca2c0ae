"""Built-in example structures on R^4.

Each example is defined once, as the structure document that
`hypercourant examples` writes and `check` reads; example(name) is the
triple parsed from that document, so tests exercise what `check` runs.

  flat-quaternionic      diagonal lifts of the constant left-multiplication
                         complex structures i and j on R^4 ~ quaternions,
                         with K = I J.  Integrable; every concomitant
                         vanishes.
  holomorphic-symplectic the symplectic lift of omega_2 = dx1^dx4 + dx2^dx3
                         together with the diagonal lift of the standard j
                         (z1 = x1 + i x2, z2 = x3 + i x4), K = I J; here
                         omega_1 + i omega_2 with omega_1 = dx1^dx3 -
                         dx2^dx4 is the constant holomorphic symplectic form
                         dz1^dz2.  Integrable.  Multiplication by i in
                         (z1, z2) is left multiplication by i, QUAT_I.
  nonintegrable          the flat triple conjugated by the position
                         dependent frame change diag(A, (A^T)^-1) with
                         A = diag(1, 1+x1^2, 1, 1), written in block form.
                         Conjugation preserves orthogonality and the
                         quaternionic relations but breaks integrability, so
                         certification passes while concomitants pick up
                         nonzero witnesses.

With the transpose realization of the dual map, composing the two diagonal
lifts gives I J equal to the lift of -(ij), so K is built as I J rather than
as an independent lift; that is the one sign convention under which the
quaternionic relations close.
"""

from __future__ import annotations

import json

from .endo import GEndo, HKTriple, mat_neg, mat_zero
from .runfile import SUITES, parse_structure_text
from .scalar import ScalarField, scalar_text

DIM = 4

# Left multiplication by i, j, k on R^4 with coordinates (1, i, j, k).
QUAT_I = ((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0))
QUAT_J = ((0, 0, -1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, -1, 0, 0))
QUAT_K = ((0, 0, 0, -1), (0, 0, -1, 0), (0, 1, 0, 0), (1, 0, 0, 0))

# Real and imaginary parts of dz1 ^ dz2 for z1 = x1 + i x2, z2 = x3 + i x4.
OMEGA_1 = ((0, 0, 1, 0), (0, 0, 0, -1), (-1, 0, 0, 0), (0, 1, 0, 0))
OMEGA_2 = ((0, 0, 0, 1), (0, 0, 1, 0), (0, -1, 0, 0), (-1, 0, 0, 0))


def const_matrix(rows) -> tuple:
    return tuple(tuple(ScalarField.const(DIM, v) for v in row) for row in rows)


def _matrix_strings(m) -> list:
    return [[scalar_text(f) for f in row] for row in m]


def conjugating_frame(diagonal) -> tuple:
    """The frame change diag(A, (A^T)^-1) with A the diagonal matrix of the
    scalar fields `diagonal`, and its inverse, as GEndos."""
    n = len(diagonal)
    one, zero = ScalarField.one(n), ScalarField.zero(n)

    def diag(entries):
        return tuple(tuple(entries[i] if i == j else zero for j in range(n)) for i in range(n))

    a, a_inv = diag(diagonal), diag(tuple(one / d for d in diagonal))
    return GEndo(a, mat_zero(n), mat_zero(n), a_inv), GEndo(a_inv, mat_zero(n), mat_zero(n), a)


def conjugated(hk: HKTriple, diagonal) -> HKTriple:
    """hk conjugated by conjugating_frame(diagonal), certified again."""
    frame, frame_inv = conjugating_frame(diagonal)
    return HKTriple.certify(frame @ hk.i @ frame_inv, frame @ hk.j @ frame_inv)


def _diagonal_lift(rows) -> dict:
    return {"lift": "diagonal", "j": _matrix_strings(const_matrix(rows))}


def _nonintegrable_members() -> dict:
    one, x1 = ScalarField.one(DIM), ScalarField.coordinate(DIM, 0)
    triple = conjugated(example("flat-quaternionic"), (one, one + x1 * x1, one, one))
    return {
        member: {k: _matrix_strings(v) for k, v in endo.blocks().items()}
        for member, endo in (("I", triple.i), ("J", triple.j))
    }


# name -> (the builder of its "structure" members, its "options")
_EXAMPLES = {
    "flat-quaternionic": (
        lambda: {"I": _diagonal_lift(QUAT_I), "J": _diagonal_lift(QUAT_J)},
        {"trials": 10, "degree": 2, "seed": 11},
    ),
    "holomorphic-symplectic": (
        lambda: {
            "I": {
                "lift": "symplectic",
                "omega": _matrix_strings(const_matrix(OMEGA_2)),
                # a constant symplectic matrix here squares to -identity, so
                # its inverse is its negative
                "omega_inv": _matrix_strings(const_matrix(mat_neg(OMEGA_2))),
            },
            "J": _diagonal_lift(QUAT_I),
        },
        {"trials": 10, "degree": 2, "seed": 23},
    ),
    "nonintegrable": (_nonintegrable_members, {"trials": 6, "degree": 1, "seed": 37}),
}

EXAMPLE_NAMES = tuple(_EXAMPLES)


def structure_file(name: str) -> dict:
    """The JSON-able structure document for one built-in example; every call
    builds a new one, so a caller may change it."""
    members, options = _EXAMPLES[name]
    return {
        "dimension": DIM,
        "coordinates": [f"x{k + 1}" for k in range(DIM)],
        "structure": members(),
        "checks": list(SUITES),
        "options": dict(options),
    }


def example(name: str) -> HKTriple:
    """The certified triple that `check` parses from the example's document."""
    return parse_structure_text(json.dumps(structure_file(name))).triple

"""Exact symbolic verification of quaternionic structures on TM (+) T*M.

The package builds the standard Courant algebroid over a coordinate chart
with exact rational-function coefficients, certifies candidate almost
hypercomplex triples (orthogonality plus the quaternionic relations), and
mechanically verifies the bracket axioms, the Nijenhuis concomitant
identities, the canonical connections with their torsion formula, and the
equivalence pattern tying integrability to parallelism.  Every check reduces
to an exact zero; failures come with a symbolic residual and a rational
point witness.
"""

__version__ = "0.2.0"

from .cartan import (
    OneForm,
    TwoForm,
    VectorField,
    exterior_derivative,
    interior_product,
    lie_bracket,
    lie_derivative,
    pair_form_vector,
)
from .courant import (
    GSection,
    anchor,
    anchor_apply,
    basis_sections,
    courant_bracket,
    d_map,
    dorfman,
    pairing,
    random_section,
    verify_axioms,
)
from .endo import (
    GEndo,
    HKTriple,
    is_orthogonal,
    lift_diagonal,
    lift_symplectic,
    quaternionic_check,
)
from .errors import (
    DimensionMismatch,
    DivisionByZero,
    EngineError,
    InconsistentEquivalence,
    IndexOutOfRange,
    NotAlmostComplex,
    NotAntisymmetric,
    NotInverse,
    PoleAtPoint,
    ScalarSyntaxError,
    SchemaError,
    UncertifiedStructure,
    UnknownVariable,
)
from .nijenhuis import (
    VARIANTS,
    TheoremReport,
    check_connection_laws,
    check_identities,
    concomitant,
    concomitant_linearity_defect,
    connection,
    delta,
    linearity_defect_formula,
    nabla_endo,
    theorem_report,
    torsion,
    torsion_formula_residual,
)
from .parse import parse_scalar
from .report import CheckReport, Witness
from .runfile import RunReport, StructureFile, emit, parse_structure, run
from .scalar import Polynomial, Rational, ScalarField, arith, eval_at, partial, scalar_text

__all__ = [name for name in dir() if not name.startswith("_")]

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

from types import ModuleType as _ModuleType

from .cartan import (
    OneForm,
    TwoForm,
    VectorField,
    exterior_derivative,
    interior_product,
    lie_bracket,
    lie_derivative,
)
from .courant import (
    GSection,
    anchor,
    anchor_apply,
    basis_sections,
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
    connection,
    delta,
    theorem_report,
    torsion,
    torsion_formula_residual,
)
from .parse import parse_scalar
from .report import CheckReport, Witness
from .runfile import RunReport, StructureFile, emit, parse_structure, run
from .scalar import Polynomial, ScalarField, scalar_text

# the submodules that the imports above bind are not part of the API
__all__ = [
    name
    for name, value in sorted(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]

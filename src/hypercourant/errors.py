"""Exception hierarchy for the whole package.

Input and precondition violations raise; the check suites never raise on a
failed mathematical identity, they report it instead.
"""


class EngineError(Exception):
    """Base class for every error raised by this package."""


class DivisionByZero(EngineError):
    """Division by the zero scalar field, or a zero denominator polynomial."""


class PoleAtPoint(EngineError):
    """Evaluation of a rational function at a zero of its denominator."""


class IndexOutOfRange(EngineError):
    """Coordinate index outside 1..n."""


class DimensionMismatch(EngineError):
    """Operands live on charts of different dimension, or a matrix has the
    wrong shape."""


class ScalarSyntaxError(EngineError):
    """Malformed scalar expression text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariable(EngineError):
    """Variable name not declared in the active chart."""

    def __init__(self, name: str, position: int):
        super().__init__(f"unknown variable {name!r} (at position {position})")
        self.name = name
        self.position = position


class NotAlmostComplex(EngineError):
    """A supplied tangent endomorphism does not square to minus identity."""


class NotAntisymmetric(EngineError):
    """A matrix supposed to represent a 2-form is not antisymmetric."""


class NotInverse(EngineError):
    """A supplied inverse matrix fails the exact inverse check."""


class UncertifiedStructure(EngineError):
    """A connection-level operation was asked for a triple that did not pass
    orthogonality and quaternionic certification."""


class SchemaError(EngineError):
    """Structure file violates the input document schema."""


class InconsistentEquivalence(EngineError):
    """The observed concomitant vanishing pattern contradicts the proved
    equivalences.  This always signals a bug in the engine, never an
    acceptable mathematical outcome; the partially built report is attached.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report

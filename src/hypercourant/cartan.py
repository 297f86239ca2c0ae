"""Coordinate Cartan calculus on R^n, degrees 0 through 2.

Vector fields and 1-forms are component tuples over the chart, and so is a
section of TM (+) T*M (courant.GSection: 2n components, vector part first).
One class, _Components, holds the sums, negation, scaling and zero test of
all three.  Each subclass names its blocks of n components in _parts, and
witnesses label a residual's components by them: vec[k], form[k].  2-forms
are full antisymmetric component matrices (uniform indexing beats the
storage saving of a triangle at this scale).  The degree ladder stops at
2-forms: d of a 2-form is deliberately not provided.

A bracket, Lie derivative or interior product is a sum of scalars times
component vectors, one call to scalar._sum_scaled:

    [X, Y]    = sum_i X^i d_i Y - Y^i d_i X
    L_X eta   = sum_i X^i d_i eta + eta_i dX^i
    i_Y omega = sum_i Y^i omega_i            (omega_i the i-th row)

A zero scalar is skipped before any derivative is taken.  With polynomial
operands the whole sum is one packed-slot accumulation, in which a term of
X^i multiplies a term of all n components at once.  An operand with a
polynomial denominator sends each component through scalar.sum_of_products
instead, as one sum of its n or 2n products.

Values are validated where they enter: the public constructors run
check_fields, the one entry check of the package.  Results built from
validated operands, here and in the Courant and endomorphism layers, go
through the unchecked `_of`; operations check only that operands share a
chart, once per section and not per component.  Section sums skip zero
components, which most frame sections and images are made of.

Every algebra value of the package is one idiom, the scalar layer's: a
__slots__ class whose `_of` (Polynomial._raw in the scalar layer) sets the
slots of a new instance directly.  Equality is exact per class and equal
values hash equal.  Nothing changes a value after it is built; that is a
convention the engine keeps, and no __setattr__ enforces it.
"""

from __future__ import annotations

from .errors import DimensionMismatch, IndexOutOfRange, NotAntisymmetric
from .scalar import ScalarField, _sum_scaled


def _check_dim(a, b):
    if a.dim != b.dim:
        raise DimensionMismatch(f"chart dimension {a.dim} vs {b.dim}")


def check_fields(entries, n: int) -> tuple:
    """The entry check of every public constructor: `entries` as a tuple of
    ScalarFields on the n-dimensional chart, n >= 1."""
    entries = tuple(entries)
    if n < 1 or not all(isinstance(f, ScalarField) and f.nvars == n for f in entries):
        raise DimensionMismatch(f"entries must be scalar fields on a chart of dimension {n}")
    return entries


def check_matrix(m, n: int) -> tuple:
    """m as n rows of n entries that pass check_fields."""
    rows = tuple(check_fields(row, n) for row in m)
    if n < 1 or len(rows) != n or any(len(row) != n for row in rows):
        raise DimensionMismatch(f"expected a {n}x{n} matrix")
    return rows


class _Components:
    """n scalar components over an n-dimensional chart for each block the
    subclass names in _parts: ("vec",) for a vector field, ("form",) for a
    1-form, ("vec", "form") for a section of TM (+) T*M."""

    __slots__ = ("components", "_hash")

    def __init__(self, components):
        comps = tuple(components)
        self.components = check_fields(comps, len(comps))
        self._hash = None

    @classmethod
    def _of(cls, components: tuple):
        out = object.__new__(cls)
        out.components = components
        out._hash = None
        return out

    def __eq__(self, other) -> bool:
        return other.__class__ is self.__class__ and self.components == other.components

    def __hash__(self) -> int:
        # taken once: sections are memo keys of the sharing scope
        h = self._hash
        if h is None:
            h = self._hash = hash(self.components)
        return h

    def __repr__(self) -> str:
        return f"{type(self).__name__}(components={self.components!r})"

    @property
    def dim(self) -> int:
        return len(self.components) // len(self._parts)

    @classmethod
    def zero(cls, n: int):
        return cls._of((ScalarField.zero(n),) * (len(cls._parts) * n))

    @classmethod
    def basis(cls, n: int, i: int):
        """The frame element with component i equal to 1 (0-based index):
        d/dx_{i+1}, dx_{i+1}, or for a section the frame section e_i."""
        width = len(cls._parts) * n
        if not 0 <= i < width:
            raise IndexOutOfRange(f"basis index {i} not in 0..{width - 1}")
        z = ScalarField.zero(n)
        one = ScalarField.one(n)
        return cls._of(tuple(one if k == i else z for k in range(width)))

    def is_zero(self) -> bool:
        return all(f.is_zero() for f in self.components)

    def _check_type(self, other):
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")

    def __add__(self, other):
        self._check_type(other)
        _check_dim(self, other)
        pairs = zip(self.components, other.components)
        return self._of(tuple(b if a.is_zero() else a if b.is_zero() else a + b for a, b in pairs))

    def __sub__(self, other):
        self._check_type(other)
        _check_dim(self, other)
        pairs = zip(self.components, other.components)
        return self._of(tuple(a if b.is_zero() else -b if a.is_zero() else a - b for a, b in pairs))

    def __neg__(self):
        return self._of(tuple(-a for a in self.components))

    def smul(self, f: ScalarField):
        return self._of(tuple(f * a for a in self.components))


class VectorField(_Components):
    """X = sum_i X^i d/dx_i."""

    __slots__ = ()
    _parts = ("vec",)


class OneForm(_Components):
    """xi = sum_i xi_i dx_i."""

    __slots__ = ()
    _parts = ("form",)


class TwoForm:
    """omega = sum_{i<j} omega_ij dx_i ^ dx_j, stored as the full
    antisymmetric matrix omega_ij."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        rows = tuple(entries)
        n = len(rows)
        rows = check_matrix(rows, n)
        for i in range(n):
            if not rows[i][i].is_zero():
                raise NotAntisymmetric(f"nonzero diagonal entry at ({i}, {i})")
            for j in range(i + 1, n):
                if rows[i][j] != -rows[j][i]:
                    raise NotAntisymmetric(f"entries ({i},{j}) and ({j},{i}) are not opposite")
        self.entries = rows

    @classmethod
    def _of(cls, entries: tuple) -> "TwoForm":
        out = object.__new__(cls)
        out.entries = entries
        return out

    def __eq__(self, other) -> bool:
        return other.__class__ is self.__class__ and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"TwoForm(entries={self.entries!r})"

    @property
    def dim(self) -> int:
        return len(self.entries)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def lie_bracket(x: VectorField, y: VectorField) -> VectorField:
    """[X, Y] = sum_i (X^i d_i Y - Y^i d_i X)."""
    _check_dim(x, y)
    xs, ys = x.components, y.components
    return VectorField._of(
        _sum_scaled(
            x.dim,
            [(xi, [yk.derivative(i) for yk in ys]) for i, xi in enumerate(xs) if not xi.is_zero()],
            [(yi, [xk.derivative(i) for xk in xs]) for i, yi in enumerate(ys) if not yi.is_zero()],
        )
    )


def exterior_derivative(arg):
    """d of a scalar (giving a 1-form) or of a 1-form (giving a 2-form)."""
    if isinstance(arg, ScalarField):
        return OneForm._of(tuple(arg.derivative(i) for i in range(arg.nvars)))
    if isinstance(arg, OneForm):
        n, c = arg.dim, arg.components
        rows = [[ScalarField.zero(n)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                # a zero operand costs no ScalarField call, a zero entry stays the shared zero
                a, b = c[j].derivative(i), c[i].derivative(j)
                entry = a if b.is_zero() else -b if a.is_zero() else a - b
                if not entry.is_zero():
                    rows[i][j], rows[j][i] = entry, -entry
        return TwoForm._of(tuple(map(tuple, rows)))
    raise TypeError("exterior_derivative takes a ScalarField or a OneForm")


def lie_derivative(x: VectorField, eta: OneForm) -> OneForm:
    """L_X eta = sum_i (X^i d_i eta + eta_i dX^i)."""
    _check_dim(x, eta)
    n = x.dim
    xs, es = x.components, eta.components
    along = [(xi, [ej.derivative(i) for ej in es]) for i, xi in enumerate(xs) if not xi.is_zero()]
    d = [(ei, [xi.derivative(j) for j in range(n)]) for ei, xi in zip(es, xs) if not ei.is_zero()]
    return OneForm._of(_sum_scaled(n, along + d))


def interior_product(y: VectorField, omega: TwoForm) -> OneForm:
    """i_Y omega = sum_i Y^i omega_i, with omega_i the i-th row of omega."""
    _check_dim(y, omega)
    pairs = zip(y.components, omega.entries)
    return OneForm._of(_sum_scaled(y.dim, [(yi, row) for yi, row in pairs if not yi.is_zero()]))

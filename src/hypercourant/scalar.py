"""Exact multivariate rational functions over the rationals.

Everything downstream (forms, brackets, endomorphisms, check suites) has
coefficients in this module, and every identity check in the package reduces
to "is this ScalarField structurally zero".  That works because both layers
keep a unique canonical form:

  Polynomial   sparse terms, exponent vector -> nonzero coefficient, stored
               as a tuple sorted in decreasing graded-lexicographic order.
  ScalarField  quotient num/den of Polynomials with gcd(num, den) = 1 and
               den normalized monic (leading graded-lex coefficient 1); the
               zero field is 0/1.

Coefficients are ints wherever the value is integral and Fraction otherwise;
no floating point anywhere.  Values are immutable and safe to share.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd as _int_gcd
from typing import Iterable, Mapping, Sequence, Union

from .errors import (
    DimensionMismatch,
    DivisionByZero,
    EngineError,
    IndexOutOfRange,
    PoleAtPoint,
)

Rational = Fraction
Coeff = Union[int, Fraction]


def _cnorm(c: Coeff) -> Coeff:
    """Collapse integral Fractions to int; keep everything exact."""
    if type(c) is int:
        return c
    if c.denominator == 1:
        return c.numerator
    return c


def _cdiv(a: Coeff, b: Coeff) -> Coeff:
    if type(a) is int and type(b) is int:
        return _cnorm(Fraction(a, b))
    return _cnorm(a / b)


def _grlex(item) -> tuple:
    mono = item[0]
    return (sum(mono), mono)


# Packed monomials (Monagan & Pearce): one int per exponent vector, the total
# degree in the top field of `width` bits, then e1 ... en with e1 most
# significant.  Adding two packed monomials multiplies them, and int order is
# graded-lexicographic order, as long as no field reaches 2**width.


def _pack(terms: tuple, width: int) -> list:
    out = []
    for mono, c in terms:
        k = sum(mono)
        for e in mono:
            k = (k << width) | e
        out.append((k, c))
    return out


def _unpack(packed: dict, nvars: int, width: int) -> tuple:
    """Canonical terms from packed monomial -> coefficient, zeros dropped."""
    mask = (1 << width) - 1
    shifts = range((nvars - 1) * width, -1, -width)
    terms = []
    for k in sorted(packed, reverse=True):
        c = _cnorm(packed[k])
        if c:
            terms.append((tuple([(k >> s) & mask for s in shifts]), c))
    return tuple(terms)


class Polynomial:
    """A multivariate polynomial in canonical sparse form."""

    __slots__ = ("nvars", "terms", "_hash")

    def __init__(self, nvars: int, terms: Mapping | Iterable = ()):
        if nvars < 0:
            raise DimensionMismatch("nvars must be nonnegative")
        pairs = terms.items() if isinstance(terms, Mapping) else terms
        cleaned = {}
        for mono, c in pairs:
            mono = tuple(mono)
            if len(mono) != nvars or any(e < 0 for e in mono):
                raise DimensionMismatch(f"bad exponent vector {mono} for {nvars} variables")
            c = _cnorm(Fraction(c) if not isinstance(c, (int, Fraction)) else c)
            if mono in cleaned:
                c = _cnorm(cleaned[mono] + c)
            if c:
                cleaned[mono] = c
            else:
                cleaned.pop(mono, None)
        self.nvars = nvars
        self.terms = tuple(sorted(cleaned.items(), key=_grlex, reverse=True))
        self._hash = None

    @classmethod
    def _raw(cls, nvars: int, sorted_terms: tuple) -> "Polynomial":
        p = object.__new__(cls)
        p.nvars = nvars
        p.terms = sorted_terms
        p._hash = None
        return p

    @classmethod
    def _from_dict(cls, nvars: int, d: dict) -> "Polynomial":
        terms = [(m, c) for m, c in d.items() if c]
        terms.sort(key=_grlex, reverse=True)
        return cls._raw(nvars, tuple(terms))

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls._raw(nvars, ())

    @classmethod
    def const(cls, nvars: int, value: Coeff) -> "Polynomial":
        value = _cnorm(value if isinstance(value, (int, Fraction)) else Fraction(value))
        if not value:
            return cls.zero(nvars)
        return cls._raw(nvars, (((0,) * nvars, value),))

    @classmethod
    def one(cls, nvars: int) -> "Polynomial":
        return cls.const(nvars, 1)

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Polynomial":
        """The coordinate x_{index+1} (0-based index)."""
        if not 0 <= index < nvars:
            raise IndexOutOfRange(f"variable index {index} not in 0..{nvars - 1}")
        mono = tuple(1 if k == index else 0 for k in range(nvars))
        return cls._raw(nvars, ((mono, 1),))

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and sum(self.terms[0][0]) == 0)

    def is_one(self) -> bool:
        return len(self.terms) == 1 and sum(self.terms[0][0]) == 0 and self.terms[0][1] == 1

    def const_value(self) -> Coeff:
        if not self.terms:
            return 0
        if not self.is_const():
            raise ValueError("not a constant polynomial")
        return self.terms[0][1]

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return sum(self.terms[0][0])

    def leading_coeff(self) -> Coeff:
        return self.terms[0][1] if self.terms else 0

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise DimensionMismatch(f"{self.nvars} vs {other.nvars} variables")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for m, c in other.terms:
            v = out.get(m)
            if v is None:
                out[m] = c
            else:
                v = _cnorm(v + c)
                if v:
                    out[m] = v
                else:
                    del out[m]
        return Polynomial._from_dict(self.nvars, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw(self.nvars, tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        if not self.terms or not other.terms:
            return Polynomial.zero(self.nvars)
        if self.is_const():
            return other.scale(self.terms[0][1])
        if other.is_const():
            return self.scale(other.terms[0][1])
        # no exponent of the product reaches 2**width, so packed sums never carry
        width = max(8, (self.total_degree() + other.total_degree()).bit_length())
        out: dict = {}
        get = out.get
        right = _pack(other.terms, width)
        for k1, c1 in _pack(self.terms, width):
            for k2, c2 in right:
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
        return Polynomial._raw(self.nvars, _unpack(out, self.nvars, width))

    def scale(self, c: Coeff) -> "Polynomial":
        if not isinstance(c, (int, Fraction)):
            c = Fraction(c)
        c = _cnorm(c)
        if not c:
            return Polynomial.zero(self.nvars)
        if c == 1:
            return self
        return Polynomial._raw(self.nvars, tuple((m, _cnorm(k * c)) for m, k in self.terms))

    def __pow__(self, e: int) -> "Polynomial":
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.one(self.nvars)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def derivative(self, var: int) -> "Polynomial":
        """Partial derivative with respect to coordinate `var` (0-based)."""
        if not 0 <= var < self.nvars:
            raise IndexOutOfRange(f"variable index {var} not in 0..{self.nvars - 1}")
        out = {}
        for m, c in self.terms:
            e = m[var]
            if e:
                dm = m[:var] + (e - 1,) + m[var + 1:]
                out[dm] = _cnorm(out.get(dm, 0) + c * e)
        return Polynomial._from_dict(self.nvars, out)

    def evaluate(self, point: Sequence[Coeff]) -> Fraction:
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

    def substitute(self, var: int, value: Coeff) -> "Polynomial":
        """Set x_var to a constant, as a polynomial with x_var removed
        (exponent zeroed, same nvars)."""
        if not 0 <= var < self.nvars:
            raise IndexOutOfRange(f"variable index {var} not in 0..{self.nvars - 1}")
        out: dict = {}
        for m, c in self.terms:
            e = m[var]
            if e:
                c = c * value ** e
                m = m[:var] + (0,) + m[var + 1:]
            out[m] = out.get(m, 0) + c
        return Polynomial._from_dict(self.nvars, {m: _cnorm(c) for m, c in out.items()})

    def deg_in(self, var: int) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(m[var] for m, _ in self.terms)

    def coeff_in(self, var: int, power: int) -> "Polynomial":
        """Coefficient of x_var^power, as a polynomial with x_var removed
        (exponent zeroed, same nvars)."""
        out = {}
        for m, c in self.terms:
            if m[var] == power:
                out[m[:var] + (0,) + m[var + 1:]] = c
        return Polynomial._from_dict(self.nvars, out)

    def divexact(self, d: "Polynomial") -> "Polynomial":
        """Exact division; raises ArithmeticError if d does not divide self."""
        self._check(d)
        if d.is_zero():
            raise DivisionByZero("exact division by the zero polynomial")
        if not self.terms:
            return self
        if d.is_one():
            return self
        if d.is_const():
            dc = d.const_value()
            return Polynomial._raw(self.nvars, tuple((m, _cdiv(c, dc)) for m, c in self.terms))
        # a new remainder term is a leading one times a term of d, so its
        # degree stays within deg self and packed sums never carry; a heap of
        # negated keys yields the leading term, skipping cancelled ones
        width = max(8, self.total_degree().bit_length())
        rem = dict(_pack(self.terms, width))
        heap = [-k for k in rem]
        heapify(heap)
        (dk0, dc0), *tail = _pack(d.terms, width)
        dm0 = d.terms[0][0]
        mask = (1 << width) - 1
        shifts = range((self.nvars - 1) * width, -1, -width)
        out = []
        while rem:
            k = -heappop(heap)
            c = rem.pop(k, None)
            if c is None:
                continue
            qm = tuple([((k >> s) & mask) - e for s, e in zip(shifts, dm0)])
            if any(e < 0 for e in qm):
                raise ArithmeticError("polynomial division is not exact")
            qk = k - dk0
            qc = _cdiv(c, dc0)
            out.append((qm, qc))
            for dk, dc in tail:
                mk = qk + dk
                v = rem.get(mk)
                if v is None:
                    heappush(heap, -mk)
                    rem[mk] = _cnorm(-qc * dc)
                else:
                    v = _cnorm(v - qc * dc)
                    if v:
                        rem[mk] = v
                    else:
                        del rem[mk]
        # quotient terms come out in decreasing order
        return Polynomial._raw(self.nvars, tuple(out))

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.nvars, self.terms))
            self._hash = h
        return h

    def __repr__(self) -> str:
        return f"Polynomial({polynomial_text(self)!r})"


# ---------------------------------------------------------------------------
# multivariate gcd (primitive pseudo-remainder sequences over Z)
# ---------------------------------------------------------------------------

_GCD_CACHE: dict = {}
_GCD_CACHE_LIMIT = 1 << 17


def _int_content(p: Polynomial) -> int:
    g = 0
    for _, c in p.terms:
        g = _int_gcd(g, abs(c))
        if g == 1:
            break
    return g


def _primitive_int(p: Polynomial) -> Polynomial:
    """Scale a nonzero polynomial to integer coefficients, content 1 and
    positive leading coefficient.  Drops the rational unit factor."""
    lcm = 1
    for _, c in p.terms:
        if type(c) is not int:
            d = c.denominator
            lcm = lcm // _int_gcd(lcm, d) * d
    if lcm != 1:
        p = p.scale(lcm)
    g = _int_content(p)
    if p.terms[0][1] < 0:
        g = -g
    if g != 1:
        p = Polynomial._raw(p.nvars, tuple((m, c // g) for m, c in p.terms))
    return p


def _vars_present(p: Polynomial) -> frozenset:
    present = set()
    for m, _ in p.terms:
        for i, e in enumerate(m):
            if e:
                present.add(i)
    return frozenset(present)


def _prem(a: Polynomial, b: Polynomial, var: int) -> Polynomial:
    """Pseudo-remainder of a by b with respect to one variable."""
    db = b.deg_in(var)
    lb = b.coeff_in(var, db)
    r = a
    n = a.nvars
    while True:
        dr = r.deg_in(var)
        if r.is_zero() or dr < db:
            return r
        lr = r.coeff_in(var, dr)
        shift_mono = tuple(dr - db if k == var else 0 for k in range(n))
        shift = Polynomial._raw(n, ((shift_mono, 1),))
        r = lb * r - lr * shift * b


def _content_in(p: Polynomial, var: int) -> Polynomial:
    g = Polynomial.zero(p.nvars)
    for power in range(p.deg_in(var) + 1):
        c = p.coeff_in(var, power)
        if not c.is_zero():
            g = _gcd_int(g, c)
            if g.is_one():
                break
    return g


# -- univariate fast path ----------------------------------------------------
#
# Divisors of a univariate polynomial are univariate, so gcd(a, b) with
# b in Q[x] equals the univariate gcd of b with the Q[x]-coefficients of a
# in the free-module decomposition over monomials in the other variables.
# This covers the dominant case downstream, where denominators are powers
# of one univariate polynomial, without any pseudo-division growth.


def _univar_index(p: Polynomial):
    present = _vars_present(p)
    if len(present) == 1:
        return next(iter(present))
    return None


def _univ_mod(a: list, b: list) -> list:
    """Remainder of dense Fraction coefficient lists (low degree first)."""
    r = list(a)
    db = len(b) - 1
    lead = b[db]
    for i in range(len(r) - 1, db - 1, -1):
        f = r[i] / lead
        if f:
            r[i] = Fraction(0)
            for k in range(db):
                r[i - db + k] -= f * b[k]
    while r and not r[-1]:
        r.pop()
    return r


def _univ_gcd(a: list, b: list) -> list:
    while b:
        a, b = b, _univ_mod(a, b)
    return a


def _to_univ(p: Polynomial, var: int) -> list:
    coeffs = [Fraction(0)] * (p.deg_in(var) + 1)
    for m, c in p.terms:
        coeffs[m[var]] += c
    return coeffs


def _from_univ(coeffs: list, var: int, nvars: int) -> Polynomial:
    terms = {}
    for e, c in enumerate(coeffs):
        if c:
            mono = tuple(e if k == var else 0 for k in range(nvars))
            terms[mono] = c
    return Polynomial(nvars, terms)


def _gcd_vs_univariate(a: Polynomial, b: Polynomial, var: int) -> Polynomial:
    """gcd(a, b) where b is univariate in `var`; a is arbitrary."""
    g = _to_univ(b, var)
    groups: dict = {}
    for m, c in a.terms:
        key = m[:var] + (0,) + m[var + 1:]
        groups.setdefault(key, []).append((m[var], c))
    for pairs in groups.values():
        top = max(e for e, _ in pairs)
        coeffs = [Fraction(0)] * (top + 1)
        for e, c in pairs:
            coeffs[e] += c
        g = _univ_gcd(g, coeffs)
        if len(g) == 1:
            return Polynomial.one(a.nvars)
    return _primitive_int(_from_univ(g, var, a.nvars))


def _gcd_int(a: Polynomial, b: Polynomial) -> Polynomial:
    """Gcd of integer-coefficient polynomials, normalized primitive with
    positive leading coefficient."""
    if a.is_zero():
        return _primitive_int(b) if not b.is_zero() else b
    if b.is_zero():
        return _primitive_int(a)
    if a.is_const() or b.is_const():
        return Polynomial.const(a.nvars, _int_gcd(_int_content(a), _int_content(b)))
    common = _vars_present(a) & _vars_present(b)
    if not common:
        return Polynomial.const(a.nvars, _int_gcd(_int_content(a), _int_content(b)))
    ub = _univar_index(b)
    if ub is not None:
        return _gcd_vs_univariate(a, b, ub)
    ua = _univar_index(a)
    if ua is not None:
        return _gcd_vs_univariate(b, a, ua)
    var = min(common, key=lambda v: max(a.deg_in(v), b.deg_in(v)))
    ca = _content_in(a, var)
    cb = _content_in(b, var)
    pa = a.divexact(ca)
    pb = b.divexact(cb)
    d = _gcd_int(ca, cb)
    if pa.deg_in(var) < pb.deg_in(var):
        pa, pb = pb, pa
    while not pb.is_zero() and pb.deg_in(var) > 0:
        r = _prem(pa, pb, var)
        pa = pb
        pb = r if r.is_zero() else r.divexact(_content_in(r, var))
    g = pa if pb.is_zero() else Polynomial.one(a.nvars)
    return _primitive_int(d * g)


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Gcd over Q up to units, normalized to primitive integer coefficients
    with positive leading coefficient.  Memoized; inputs are immutable."""
    if a.nvars != b.nvars:
        raise DimensionMismatch(f"{a.nvars} vs {b.nvars} variables")
    if a.is_zero():
        return _primitive_int(b) if not b.is_zero() else b
    if b.is_zero():
        return _primitive_int(a)
    pa = _primitive_int(a)
    pb = _primitive_int(b)
    if pa.is_const() or pb.is_const():
        return Polynomial.one(a.nvars)
    if pa.terms == pb.terms:
        return pa
    key = (pa.terms, pb.terms) if pa.terms <= pb.terms else (pb.terms, pa.terms)
    hit = _GCD_CACHE.get(key)
    if hit is not None:
        return hit
    g = _gcd_int(pa, pb)
    if len(_GCD_CACHE) >= _GCD_CACHE_LIMIT:
        _GCD_CACHE.clear()
    _GCD_CACHE[key] = g
    return g


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------


class ScalarField:
    """A rational function num/den in reduced, denominator-monic form.

    Structural equality coincides with equality of rational functions, so
    identity checks downstream are plain `==` against zero.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: Polynomial, den: Polynomial | None = None):
        if den is None:
            den = Polynomial.one(num.nvars)
        if num.nvars != den.nvars:
            raise DimensionMismatch(f"{num.nvars} vs {den.nvars} variables")
        if den.is_zero():
            raise DivisionByZero("zero denominator polynomial")
        num, den = _reduce(num, den)
        self.num = num
        self.den = den
        self._hash = None

    @classmethod
    def _raw(cls, num: Polynomial, den: Polynomial) -> "ScalarField":
        f = object.__new__(cls)
        f.num = num
        f.den = den
        f._hash = None
        return f

    @classmethod
    def zero(cls, nvars: int) -> "ScalarField":
        return cls._raw(Polynomial.zero(nvars), Polynomial.one(nvars))

    @classmethod
    def one(cls, nvars: int) -> "ScalarField":
        return cls.const(nvars, 1)

    @classmethod
    def const(cls, nvars: int, value: Coeff) -> "ScalarField":
        return cls._raw(Polynomial.const(nvars, value), Polynomial.one(nvars))

    @classmethod
    def coordinate(cls, nvars: int, index: int) -> "ScalarField":
        """The coordinate function x_{index+1} (0-based index)."""
        return cls._raw(Polynomial.variable(nvars, index), Polynomial.one(nvars))

    @classmethod
    def from_polynomial(cls, p: Polynomial) -> "ScalarField":
        return cls._raw(p, Polynomial.one(p.nvars))

    @property
    def nvars(self) -> int:
        return self.num.nvars

    def is_zero(self) -> bool:
        return not self.num.terms

    def is_const(self) -> bool:
        return self.num.is_const() and self.den.is_one()

    def const_value(self) -> Coeff:
        if not self.den.is_one():
            raise ValueError("not a constant field")
        return self.num.const_value()

    def _check(self, other: "ScalarField"):
        if self.nvars != other.nvars:
            raise DimensionMismatch(f"{self.nvars} vs {other.nvars} variables")

    def __add__(self, other: "ScalarField") -> "ScalarField":
        self._check(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if d1.terms == d2.terms:
            num = n1 + n2
            if num.is_zero():
                return ScalarField.zero(self.nvars)
            if d1.is_one():
                return ScalarField._raw(num, d1)
            g = poly_gcd(num, d1)
            if g.is_one():
                return ScalarField._raw(num, d1)
            return _monic(num.divexact(g), d1.divexact(g))
        # Henrici: with reduced inputs only gcd(d1, d2) can cancel
        g0 = poly_gcd(d1, d2)
        if g0.is_one():
            num = n1 * d2 + n2 * d1
            if num.is_zero():
                return ScalarField.zero(self.nvars)
            return ScalarField._raw(num, d1 * d2)
        d2r = d2.divexact(g0)
        t = n1 * d2r + n2 * d1.divexact(g0)
        if t.is_zero():
            return ScalarField.zero(self.nvars)
        g1 = poly_gcd(t, g0)
        if g1.is_one():
            return _monic(t, d1 * d2r)
        return _monic(t.divexact(g1), d1.divexact(g1) * d2r)

    def __neg__(self) -> "ScalarField":
        if self.is_zero():
            return self
        return ScalarField._raw(-self.num, self.den)

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        return self + (-other)

    def __mul__(self, other: "ScalarField") -> "ScalarField":
        self._check(other)
        if self.is_zero() or other.is_zero():
            return ScalarField.zero(self.nvars)
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if d1.is_one() and d2.is_one():
            return ScalarField._raw(n1 * n2, d1)
        g1 = poly_gcd(n1, d2) if not d2.is_one() else None
        g2 = poly_gcd(n2, d1) if not d1.is_one() else None
        if g1 is not None and not g1.is_one():
            n1 = n1.divexact(g1)
            d2 = d2.divexact(g1)
        if g2 is not None and not g2.is_one():
            n2 = n2.divexact(g2)
            d1 = d1.divexact(g2)
        return _monic(n1 * n2, d1 * d2)

    def __truediv__(self, other: "ScalarField") -> "ScalarField":
        return self * other.reciprocal()

    def reciprocal(self) -> "ScalarField":
        if self.is_zero():
            raise DivisionByZero("division by the zero field")
        return _monic(self.den, self.num)

    def scale(self, c: Coeff) -> "ScalarField":
        if not isinstance(c, (int, Fraction)):
            c = Fraction(c)
        c = _cnorm(c)
        if not c:
            return ScalarField.zero(self.nvars)
        if c == 1:
            return self
        return ScalarField._raw(self.num.scale(c), self.den)

    def __pow__(self, e: int) -> "ScalarField":
        if e < 0:
            return self.reciprocal() ** (-e)
        result = ScalarField.one(self.nvars)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def derivative(self, var: int) -> "ScalarField":
        """Partial derivative by coordinate `var` (0-based), quotient rule."""
        if not 0 <= var < self.nvars:
            raise IndexOutOfRange(f"variable index {var} not in 0..{self.nvars - 1}")
        if self.den.is_one():
            d = self.num.derivative(var)
            return ScalarField._raw(d, self.den) if not d.is_zero() else ScalarField.zero(self.nvars)
        num = self.num.derivative(var) * self.den - self.num * self.den.derivative(var)
        return ScalarField(num, self.den * self.den)

    def evaluate(self, point: Sequence[Coeff]) -> Fraction:
        dval = self.den.evaluate(point)
        if dval == 0:
            raise PoleAtPoint(f"denominator vanishes at {tuple(point)}")
        return self.num.evaluate(point) / dval

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ScalarField)
            and self.num.nvars == other.num.nvars
            and self.num.terms == other.num.terms
            and self.den.terms == other.den.terms
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.num.terms, self.den.terms, self.nvars))
            self._hash = h
        return h

    def __repr__(self) -> str:
        return f"ScalarField({scalar_text(self)!r})"

    def __str__(self) -> str:
        return scalar_text(self)


def _monic(num: Polynomial, den: Polynomial) -> ScalarField:
    """Finish a known-reduced quotient: normalize den to leading coefficient 1."""
    if num.is_zero():
        return ScalarField.zero(num.nvars)
    lc = den.leading_coeff()
    if lc != 1:
        inv = _cdiv(1, lc)
        num = num.scale(inv)
        den = den.scale(inv)
    return ScalarField._raw(num, den)


def _reduce(num: Polynomial, den: Polynomial) -> tuple:
    if num.is_zero():
        return Polynomial.zero(num.nvars), Polynomial.one(num.nvars)
    g = poly_gcd(num, den)
    if not g.is_one():
        num = num.divexact(g)
        den = den.divexact(g)
    f = _monic(num, den)
    return f.num, f.den


# ---------------------------------------------------------------------------
# named operations matching the public contract
# ---------------------------------------------------------------------------


def arith(f: ScalarField, g: ScalarField, op: str) -> ScalarField:
    """Exact field arithmetic; op is one of add|sub|mul|div."""
    if op == "add":
        return f + g
    if op == "sub":
        return f - g
    if op == "mul":
        return f * g
    if op == "div":
        return f / g
    raise ValueError(f"unknown op {op!r}")


def partial(f: ScalarField, i: int) -> ScalarField:
    """Partial derivative by the i-th coordinate, 1-based."""
    if not 1 <= i <= f.nvars:
        raise IndexOutOfRange(f"coordinate index {i} not in 1..{f.nvars}")
    return f.derivative(i - 1)


def eval_at(f: ScalarField, point: Sequence[Coeff]) -> Fraction:
    """Exact evaluation at a rational point."""
    if len(point) != f.nvars:
        raise DimensionMismatch(f"point has {len(point)} coordinates, chart has {f.nvars}")
    return f.evaluate(point)


# ---------------------------------------------------------------------------
# canonical printing (grammar-compatible, see parse module)
# ---------------------------------------------------------------------------


def coeff_text(c: Coeff) -> str:
    """Decimal text of an exact rational.  A number past the interpreter's
    int() digit limit raises EngineError: the parser could not read it back."""
    try:
        return str(c)
    except ValueError:  # beyond the interpreter's str(int) digit limit
        raise EngineError("a number in the result has too many digits to print") from None


def _mono_text(mono) -> str:
    parts = []
    for k, e in enumerate(mono):
        if e == 1:
            parts.append(f"x{k + 1}")
        elif e > 1:
            parts.append(f"x{k + 1}^{e}")
    return "*".join(parts)


def polynomial_text(p: Polynomial) -> str:
    """Canonical text; reparses to the same polynomial."""
    if not p.terms:
        return "0"
    pieces = []
    for idx, (mono, c) in enumerate(p.terms):
        mt = _mono_text(mono)
        mag = abs(c)
        if not mt:
            body = coeff_text(mag)
        elif mag == 1:
            body = mt
        else:
            body = f"{coeff_text(mag)}*{mt}"
        if idx == 0:
            if c < 0:
                # the grammar has no unary minus on variables, keep "-1*"
                body = f"-{coeff_text(mag)}*{mt}" if mt else f"-{coeff_text(mag)}"
            pieces.append(body)
        else:
            pieces.append(f"{'-' if c < 0 else '+'} {body}")
    return " ".join(pieces)


def scalar_text(f: ScalarField) -> str:
    """Canonical text of a rational function; reparses to the same field."""
    if f.den.is_one():
        return polynomial_text(f.num)
    return f"({polynomial_text(f.num)})/({polynomial_text(f.den)})"

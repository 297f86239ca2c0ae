"""Exact multivariate rational functions over the rationals.

Everything downstream (forms, brackets, endomorphisms, check suites) has
coefficients in this module, and every identity check in the package reduces
to "is this ScalarField structurally zero".  That works because both layers
keep a unique canonical form:

  Polynomial   int terms over one denominator (as in FLINT's fmpq_poly),
               stored packed (Monagan & Pearce): `packed` is a tuple of
               (key, nonzero int coefficient) pairs in decreasing key order,
               and `den` is an int >= 1 that shares no factor with their
               content; the polynomial is their sum divided by den, and zero
               is () over 1.  A key is one int holding the total degree,
               then e1 ... en, each in a field of WIDTH = 16 bits, e1 most
               significant, so int order is graded-lexicographic order and
               adding two keys multiplies the monomials.  Every polynomial
               uses this one layout, so (nvars, packed, den) is unique.  It
               holds because the total degree is at most MAX_TOTAL_DEGREE =
               65535: a polynomial above it raises EngineError, where it is
               built or multiplied.  `terms`, the (exponent vector, rational
               coefficient) pairs in the same order, is decoded on demand.
  ScalarField  quotient num/den of Polynomials with gcd(num, den) = 1 and
               den normalized monic (leading graded-lex coefficient 1); the
               zero field is 0/1.

Arithmetic on Polynomials is int arithmetic over the least common
denominator of the operands, normalized once per result.  Values leave as
exact rationals, int where integral and Fraction otherwise (`terms`,
`leading_coeff`, `evaluate`); no floating point anywhere.  Values are
immutable and safe to share.  The zero polynomial and the zero and one
fields are one object per number of variables, copies and pickles included.
ScalarField operators check the chart only where an operand is zero; for
two nonzero operands the Polynomial layer raises DimensionMismatch.

poly_gcd, which keeps every ScalarField reduced, is one algorithm on packed
polynomials: the heuristic gcd of Char, Geddes & Gonnet (1989), which
evaluates only variables that both operands have, lifts the gcd of the
values back and keeps it once exact division shows that it divides both.
_cancel divides a quotient by that gcd, for every ScalarField operation
but Henrici's sum, which needs two gcds.  Polynomial.evaluate substitutes
one coordinate at a time, as the witness search does.

_sum_products is the one accumulator under the Cartan, Dorfman and
endomorphism layers.  It adds a whole sum of polynomial products, term pair
by term pair, into one packed key -> int dict (Monagan & Pearce), instead of
building and sorting a Polynomial per product and per partial sum.  Each of
its products is a polynomial f times V:
  sum_of_products  (the pairing, the anchor, the endomorphisms) passes one
                   polynomial as V, one int per key.
  _sum_scaled      (the Cartan operators) passes a whole vector field or
                   1-form as V, its L components packed into one int per key
                   with slot k at bit offset k*W, so one multiply-add serves
                   all L slots.  The width W is taken per call from a bound
                   on every slot's total, plus a sign bit, so no slot
                   borrows from its neighbour (the proof is at
                   _sum_products).
A product with a polynomial denominator takes the rational route instead:
sum_of_products adds it through ScalarField `*` and `+`, and _sum_scaled then
makes one sum_of_products per component.  A sum of one product goes through
Polynomial `*`, whose one-term path needs neither dict nor sort.

SHARING is the open sharing scope, a Scope or None.  shared(fn, *args) is
the one memo call: poly_gcd, ScalarField.derivative and the nijenhuis
brackets, images, connections and Delta go through it, so a value lives
as long as the scope that holds it and nothing is kept process-wide.
sharing(keep) opens a scope; only the three loops of the nijenhuis module
that own one call it (see there), and the formulas they run never do.  A
lookup reads every scope; keep decides only what the open scope stores.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from heapq import heappop, heappush
from math import gcd as _int_gcd
from math import lcm
from typing import Iterable, Mapping, Sequence, Union

from .errors import (
    DimensionMismatch,
    DivisionByZero,
    EngineError,
    IndexOutOfRange,
    PoleAtPoint,
)

Coeff = Union[int, Fraction]

SHARING: ContextVar = ContextVar("hypercourant_sharing", default=None)


class Scope(dict):
    """A sharing scope: values fn(*args) keyed (fn, *args).  It reads through
    `outer`, and stores a computed value only where keep(key) admits it."""

    def __init__(self, keep, outer):
        super().__init__()
        self.keep, self.outer = keep, outer


@contextmanager
def sharing(keep):
    """A new Scope for the block, holding what keep admits and reading the
    open scope."""
    token = SHARING.set(scope := Scope(keep, SHARING.get()))
    try:
        yield scope
    finally:
        SHARING.reset(token)


def shared(fn, *args):
    """fn(*args) from the first scope, the open one then its outer ones, that
    holds it, asking no keep; else computed by fn as passed and stored where
    the open scope's keep admits it, so a patched fn sees every computation."""
    scope = SHARING.get()
    if scope is None:
        return fn(*args)
    key, s = (fn, *args), scope
    while s is not None:
        out = s.get(key)
        if out is not None:
            return out
        s = s.outer
    out = fn(*args)
    if scope.keep(key):
        scope[key] = out
    return out


def _cdiv(a: Coeff, b: int) -> Coeff:
    """a / b for a nonzero int b, as an int where it is integral."""
    if type(a) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return Fraction(a, b)


# A key: deg << (n * WIDTH) | e1 << ((n - 1) * WIDTH) | ... | en.  No
# exponent exceeds the total degree, which _check_degree keeps within a
# field, so key sums never carry.

WIDTH = 16
MAX_TOTAL_DEGREE = (1 << WIDTH) - 1
_MASK = MAX_TOTAL_DEGREE


def _check_degree(degree: int) -> None:
    """Raise EngineError for a total degree that does not fit a key field."""
    if degree > MAX_TOTAL_DEGREE:
        raise EngineError(f"a polynomial of degree above {MAX_TOTAL_DEGREE} (degree {degree})")


def _field(nvars: int, var: int) -> tuple:
    """Shift of the field of x_var (0-based) in a key, and the key of x_var
    itself: subtracting e times it removes x_var^e."""
    s = (nvars - 1 - var) * WIDTH
    return s, (1 << (nvars * WIDTH)) | (1 << s)


def _canon(nvars: int, packed: tuple, den: int) -> "Polynomial":
    """The polynomial packed / den, for nonzero int coefficients in
    decreasing key order and den >= 1: divides out the gcd of den and the
    coefficients, which stops at 1 on the first coprime one."""
    if not packed:
        return Polynomial.zero(nvars)
    if den != 1:
        g = den
        for _, c in packed:
            g = _int_gcd(g, c)
            if g == 1:
                break
        if g != 1:
            den //= g
            packed = tuple([(k, c // g) for k, c in packed])
    return Polynomial._raw(nvars, packed, den)


def _collect(nvars: int, out: dict, den: int) -> "Polynomial":
    """A polynomial from key -> int coefficient over den, zeros dropped."""
    return _canon(nvars, tuple([(k, c) for k in sorted(out, reverse=True) if (c := out[k])]), den)


def _rational(nvars: int, terms) -> "Polynomial":
    """A polynomial from (key, nonzero int or Fraction) pairs in decreasing
    key order, over the least common denominator of the coefficients."""
    den = lcm(*[c.denominator for _, c in terms])
    return _canon(nvars, tuple([(k, c.numerator * (den // c.denominator)) for k, c in terms]), den)


def _sum_products(nvars: int, triples: list, slots: int = 0):
    """The sum of sign * f * V over (f, V, sign) triples with f a polynomial:
    V one polynomial when slots is 0, which gives one polynomial, or else a
    sequence of `slots` polynomials, which gives the tuple of their sums.
    Every int term product goes into one packed key -> int dict over the
    least common denominator D, with the operand of fewer terms as the outer
    loop.  With slots 0 the caller has checked the degrees.

    With slots = L > 0 the coefficients are packed too (Kronecker
    substitution, as in Harvey 2009): _pack checks the degrees and makes
    each V one int per key, sum_k c_k << k*W with c_k the coefficient of
    sign * V[k] over D there, so one multiply-add serves a term pair of f
    and all L slots of V, and each result key is split once into L signed
    slots, each then made canonical.

    No slot borrows from its neighbour.  Slot k of key K receives c1 * c_k
    for each term c1 of f, at key k1, whose K - k1 is a key of V[k]: one c_k
    at most per term of f.  So every slot total s_k of every key is at most
    B = sum over the triples of |f|_1 * max|V| in absolute value, with
    |f|_1 the sum of f's |c1| and max|V| the largest |c_k| of V.  With
    W = bitlength(B) + 1 a sign bit wider, |s_k| < 2**(W-1), so the lowest W
    bits of the key's int, read as a residue in (-2**(W-1), 2**(W-1)), are
    s_0 itself; subtracting s_0 and shifting by W leaves the same sum over
    slots 1 to L - 1.  Int sums are exact in any order, so only each key's
    final int is split."""
    if slots:
        triples, den, width = _pack(nvars, triples)
    else:
        den = lcm(*[a.den * b.den for a, b, _ in triples])
    out: dict = {}
    get = out.get
    for a, b, m in triples:
        if not slots:
            m *= den // (a.den * b.den)
            a, b = a.packed, b.packed
        if len(a) > len(b):
            a, b = b, a
        for k1, c1 in a:
            c1 *= m
            for k2, c2 in b:
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
    if not slots:
        return _collect(nvars, out, den)
    cols = [[] for _ in range(slots)]
    mask, half = (1 << width) - 1, 1 << (width - 1)
    # keys in decreasing order, each split from slot 0 up
    for k in sorted(out, reverse=True):
        v = out[k]
        for col in cols:
            if not v:
                break
            s = v & mask
            if s >= half:
                s -= mask + 1
            if s:
                col.append((k, s))
            v = (v - s) >> width
    return tuple([_canon(nvars, tuple(col), den) for col in cols])


def _pack(nvars: int, triples: list) -> tuple:
    """For _sum_products with slots: the rows (f's terms, V's packed terms,
    multiplier 1), D and the slot width W.  A row whose f or V is zero is
    dropped, and a product of total degree above MAX_TOTAL_DEGREE raises
    EngineError."""
    den = lcm(*[f.den * v.den for f, vec, _ in triples for v in vec])
    at = nvars * WIDTH
    scaled = []
    bound = 0
    for f, vec, sign in triples:
        # sign * V[k] over D: its coefficients times sign * D // (f.den * V[k].den)
        vec = [(v.packed, sign * (den // (f.den * v.den))) for v in vec]
        top = max([abs(c * s) for p, s in vec for _, c in p], default=0)
        if top and f.packed:
            _check_degree((f.packed[0][0] >> at) + (max([p[0][0] for p, _ in vec if p]) >> at))
            bound += sum([abs(c) for _, c in f.packed]) * top
            scaled.append((f.packed, vec))
    width = bound.bit_length() + 1
    rows = []
    for a, vec in scaled:
        packed: dict = {}
        get = packed.get
        for slot, (p, s) in enumerate(vec):
            shift = slot * width
            for k, c in p:
                packed[k] = get(k, 0) + (c * s << shift)
        rows.append((a, tuple(packed.items()), 1))
    return rows, den, width


_ZERO: dict = {}
_ONE: dict = {}


class Polynomial:
    """A multivariate polynomial in canonical packed sparse form: nonzero int
    coefficients in `packed` over one int `den` >= 1 that shares no factor
    with their content, unique per value, so equality is (nvars, packed, den)."""

    __slots__ = ("nvars", "packed", "den", "_hash")

    def __new__(cls, nvars: int, terms: Mapping | Iterable = ()):
        if nvars < 0:
            raise DimensionMismatch("nvars must be nonnegative")
        pairs = terms.items() if isinstance(terms, Mapping) else terms
        cleaned = {}
        for mono, c in pairs:
            mono = tuple(mono)
            if len(mono) != nvars or any(e < 0 for e in mono):
                raise DimensionMismatch(f"bad exponent vector {mono} for {nvars} variables")
            c = c if isinstance(c, (int, Fraction)) else Fraction(c)
            cleaned[mono] = cleaned[mono] + c if mono in cleaned else c
        keyed = {}
        for mono, c in cleaned.items():
            if not c:
                continue
            k = sum(mono)
            _check_degree(k)
            for e in mono:
                k = (k << WIDTH) | e
            keyed[k] = c
        return _rational(nvars, [(k, keyed[k]) for k in sorted(keyed, reverse=True)])

    @classmethod
    def _raw(cls, nvars: int, packed: tuple, den: int = 1) -> "Polynomial":
        p = object.__new__(cls)
        p.nvars = nvars
        p.packed = packed
        p.den = den
        p._hash = None
        return p

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        p = _ZERO.get(nvars)
        if p is None:
            p = _ZERO[nvars] = cls._raw(nvars, ())
        return p

    @classmethod
    def const(cls, nvars: int, value: Coeff) -> "Polynomial":
        value = value if isinstance(value, (int, Fraction)) else Fraction(value)
        if not value:
            return cls.zero(nvars)
        if value == 1:
            return cls.one(nvars)
        return cls._raw(nvars, ((0, value.numerator),), value.denominator)

    @classmethod
    def one(cls, nvars: int) -> "Polynomial":
        p = _ONE.get(nvars)
        if p is None:
            p = _ONE[nvars] = cls._raw(nvars, ((0, 1),))
        return p

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Polynomial":
        """The coordinate x_{index+1} (0-based index)."""
        if not 0 <= index < nvars:
            raise IndexOutOfRange(f"variable index {index} not in 0..{nvars - 1}")
        return cls._raw(nvars, ((_field(nvars, index)[1], 1),))

    @property
    def terms(self) -> tuple:
        """(exponent vector, coefficient) pairs in decreasing graded-lex order,
        decoded: each coefficient is its packed int over `den`, int or Fraction."""
        shifts = range((self.nvars - 1) * WIDTH, -1, -WIDTH)
        den = self.den
        decoded = self.packed if den == 1 else [(k, _cdiv(c, den)) for k, c in self.packed]
        return tuple([(tuple([(k >> s) & _MASK for s in shifts]), c) for k, c in decoded])

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.packed

    def is_const(self) -> bool:
        # key 0 is the constant monomial and the least key
        return not self.packed or self.packed[0][0] == 0

    def is_one(self) -> bool:
        return self.packed == ((0, 1),) and self.den == 1

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.packed:
            return -1
        return self.packed[0][0] >> (self.nvars * WIDTH)

    def leading_coeff(self) -> Coeff:
        return _cdiv(self.packed[0][1], self.den) if self.packed else 0

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise DimensionMismatch(f"{self.nvars} vs {other.nvars} variables")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        if not self.packed:
            return other
        if not other.packed:
            return self
        a, b, den = self.packed, other.packed, self.den
        if other.den != den:
            den = lcm(den, other.den)
            a = [(k, c * (den // self.den)) for k, c in a]
            b = [(k, c * (den // other.den)) for k, c in b]
        out = dict(a)
        get = out.get
        for k, c in b:
            out[k] = get(k, 0) + c
        return _collect(self.nvars, out, den)

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw(self.nvars, tuple([(k, -c) for k, c in self.packed]), self.den)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        if not self.packed or not other.packed:
            return Polynomial.zero(self.nvars)
        _check_degree(self.total_degree() + other.total_degree())
        a, b = self, other
        if len(a.packed) == 1:
            a, b = b, a
        if len(b.packed) == 1:
            ((km, cm),) = b.packed
            if not km:
                # a constant keeps the keys, which stay shared
                return a._times(cm, b.den)
            # adding one key to every key keeps their order
            shifted = tuple([(k + km, c * cm) for k, c in a.packed])
            return _canon(self.nvars, shifted, a.den * b.den)
        return _sum_products(self.nvars, [(self, other, 1)])

    def _times(self, n: int, d: int) -> "Polynomial":
        """self * n / d for nonzero ints n and d."""
        if n == d:
            return self
        if d < 0:
            n, d = -n, -d
        return _canon(self.nvars, tuple([(k, c * n) for k, c in self.packed]), self.den * d)

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
        s, unit = _field(self.nvars, var)
        # every surviving key loses the same x_var, so the order holds
        out = tuple([(k - unit, c * e) for k, c in self.packed if (e := (k >> s) & _MASK)])
        return _canon(self.nvars, out, self.den)

    def evaluate(self, point: Sequence[Coeff]) -> Fraction:
        if len(point) != self.nvars:
            raise DimensionMismatch(f"point has {len(point)} coordinates, chart has {self.nvars}")
        p = self
        for var, v in enumerate(point):
            p = p.substitute(var, Fraction(v))
        return Fraction(p.leading_coeff())

    def substitute(self, var: int, value: Coeff) -> "Polynomial":
        """Set x_var to a constant, as a polynomial with x_var removed
        (exponent zeroed, same nvars)."""
        if not 0 <= var < self.nvars:
            raise IndexOutOfRange(f"variable index {var} not in 0..{self.nvars - 1}")
        top = self.deg_in(var)
        if top <= 0:
            return self
        # value = p/q, so c x_var^e becomes c p^e q^(top - e) over q^top
        s, unit = _field(self.nvars, var)
        p, q = value.numerator, value.denominator
        weight = [p**e * q ** (top - e) for e in range(top + 1)]
        out: dict = {}
        for k, c in self.packed:
            e = (k >> s) & _MASK
            k -= e * unit
            out[k] = out.get(k, 0) + c * weight[e]
        return _collect(self.nvars, out, self.den * q**top)

    def deg_in(self, var: int) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        if not self.packed:
            return -1
        s, _ = _field(self.nvars, var)
        return max((k >> s) & _MASK for k, _ in self.packed)

    def divexact(self, d: "Polynomial") -> "Polynomial":
        """Exact division; raises ArithmeticError if d does not divide self."""
        self._check(d)
        if d.is_zero():
            raise DivisionByZero("exact division by the zero polynomial")
        if not self.packed or d.is_one():
            return self
        if d.total_degree() > self.total_degree():
            raise ArithmeticError("polynomial division is not exact")
        # self / d is (self.packed / d.packed) * d.den / self.den; a new
        # remainder term is a leading one times a term of d, so its degree
        # stays within deg self and key sums never carry
        (dk0, dc0), *tail = d.packed
        shifts = range((self.nvars - 1) * WIDTH, -1, -WIDTH)
        fields = [(s, e) for s in shifts if (e := (dk0 >> s) & _MASK)]
        # a heap of negated keys yields the leading remainder term, skipping
        # cancelled ones; the keys of self in decreasing order, negated, are
        # already a heap.  The quotient's coefficients may be Fractions.
        rem = dict(self.packed)
        heap = [-k for k, _ in self.packed]
        out = []
        while rem:
            k = -heappop(heap)
            c = rem.pop(k, None)
            if c is None:
                continue
            for s, e in fields:
                if (k >> s) & _MASK < e:
                    raise ArithmeticError("polynomial division is not exact")
            qk = k - dk0
            qc = _cdiv(c, dc0)
            out.append((qk, qc))
            for dk, dc in tail:
                mk = qk + dk
                v = rem.get(mk)
                if v is None:
                    heappush(heap, -mk)
                    rem[mk] = -qc * dc
                else:
                    v -= qc * dc
                    if v:
                        rem[mk] = v
                    else:
                        del rem[mk]
        # quotient terms come out in decreasing order
        return _rational(self.nvars, out)._times(d.den, self.den)

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, Polynomial)
            and self.nvars == other.nvars
            and self.den == other.den
            and self.packed == other.packed
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.nvars, self.packed, self.den))
            self._hash = h
        return h

    def __reduce__(self):
        # copies and pickles go through the constructor, which needs nvars
        return Polynomial, (self.nvars, self.terms)

    def __repr__(self) -> str:
        return f"Polynomial({polynomial_text(self)!r})"


# ---------------------------------------------------------------------------
# multivariate gcd (heuristic gcd over the shared variables)
# ---------------------------------------------------------------------------

def _int_content(p: Polynomial) -> int:
    g = 0
    for _, c in p.packed:
        g = _int_gcd(g, abs(c))
        if g == 1:
            break
    return g


def _primitive_int(p: Polynomial) -> Polynomial:
    """A nonzero polynomial's int coefficients over 1, divided by their
    content, with positive leading coefficient.  Drops the rational unit
    factor."""
    g = _int_content(p)
    if p.packed[0][1] < 0:
        g = -g
    if g != 1:
        return Polynomial._raw(p.nvars, tuple([(k, c // g) for k, c in p.packed]))
    return p if p.den == 1 else Polynomial._raw(p.nvars, p.packed)


def _vars_present(p: Polynomial) -> frozenset:
    # fields never carry, so a field of the or of all keys is nonzero
    # exactly when the variable occurs
    acc = 0
    for k, _ in p.packed:
        acc |= k
    shifts = range((p.nvars - 1) * WIDTH, -1, -WIDTH)
    return frozenset([i for i, s in enumerate(shifts) if (acc >> s) & _MASK])


def _gcd_int(a: Polynomial, b: Polynomial) -> Polynomial:
    """The gcd over Z of int-coefficient polynomials over 1, not both zero,
    content included, with positive leading coefficient: the heuristic gcd
    (GCDHEU) of Char, Geddes & Gonnet (1989) on the variables both have.

    A common factor has only variables that both operands have, so with none
    shared the gcd is the gcd of the int contents, and a variable that only
    one operand has is never evaluated.  Otherwise one shared variable t is
    set to the int xi = 2 |b| + 2, with b the primitive part with fewer terms
    and |b| its max-norm, so xi >= 2 min(|a|, |b|) + 2; the gcd h of the two
    values is taken by recursion, and the balanced xi-adic digits of h's
    coefficients lift it back to a polynomial in t.  Under that bound on xi,
    the lift's primitive part is the gcd of the primitive parts as soon as
    it divides both (their correctness theorem); if it does not, xi grows
    and the step repeats.

    The retry ends.  With G the gcd of the primitive parts and A, B their
    cofactors, h = G(xi) gcd(A(xi), B(xi)), and the second factor divides
    Res_t(A, B), which is nonzero because A and B are coprime, and does not
    contain t.  A nonconstant factor of it divides the values of both
    cofactors at only finitely many xi, so beyond them h is G(xi) times a
    divisor of one fixed int; once xi exceeds twice the coefficients of G
    times that int, the lift is exactly that product, whose primitive part
    is G.
    """
    if not a.packed or not b.packed:
        p = a if a.packed else b
        return p if p.packed[0][1] > 0 else -p
    if len(a.packed) < len(b.packed):
        a, b = b, a
    c = _int_gcd(_int_content(a), _int_content(b))
    # b is the shorter operand, often a constant
    shared = _vars_present(b)
    if shared:
        shared &= _vars_present(a)
    if not shared:
        return Polynomial.const(a.nvars, c)
    a, b = _primitive_int(a), _primitive_int(b)
    t = min(shared)
    unit = _field(a.nvars, t)[1]
    xi = 2 * max([abs(v) for _, v in b.packed]) + 2
    while True:
        lift: dict = {}
        for k, v in _gcd_int(a.substitute(t, xi), b.substitute(t, xi)).packed:
            # v is the sum of d * xi^e over its digits d, |d| <= xi / 2
            while v:
                d = v % xi
                if d > xi >> 1:
                    d -= xi
                if d:
                    lift[k] = d
                v = (v - d) // xi
                k += unit
        g = _primitive_int(_collect(a.nvars, lift, 1))
        if g.is_one():
            # the shared one, not a copy for a scope to keep
            return Polynomial.const(a.nvars, c)
        try:
            a.divexact(g)
            b.divexact(g)
        except ArithmeticError:
            # a non-round factor, so that xi avoids simple patterns
            xi = xi * 73794 // 27011
            continue
        return g._times(c, 1)


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Gcd over Q up to units, normalized to primitive integer coefficients
    with positive leading coefficient.  Memoised per sharing scope, under
    one key for both orders of the primitive parts; outside a scope every
    call computes."""
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
    if pa.packed == pb.packed:
        return pa
    # one key for both orders: (nvars, packed) determines a polynomial
    if pb.packed < pa.packed:
        pa, pb = pb, pa
    return shared(_gcd_int, pa, pb)


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

_FIELD_ZERO: dict = {}
_FIELD_ONE: dict = {}


class ScalarField:
    """A rational function num/den in reduced, denominator-monic form.

    Structural equality coincides with equality of rational functions, so
    identity checks downstream are plain `==` against zero.  Every field
    comes from _raw, which returns the shared zero and one.
    """

    __slots__ = ("num", "den", "_hash")

    def __new__(cls, num: Polynomial, den: Polynomial | None = None):
        if den is None:
            den = Polynomial.one(num.nvars)
        if num.nvars != den.nvars:
            raise DimensionMismatch(f"{num.nvars} vs {den.nvars} variables")
        if den.is_zero():
            raise DivisionByZero("zero denominator polynomial")
        return _monic(*_cancel(num, den))

    @classmethod
    def _raw(cls, num: Polynomial, den: Polynomial) -> "ScalarField":
        """num/den for coprime num and monic den, so den is one when constant:
        the one place that makes a field, and the owner of zero and one."""
        if not num.packed:
            return cls.zero(num.nvars)
        if num.packed == ((0, 1),) == den.packed and num.den == 1:
            return cls.one(num.nvars)
        f = object.__new__(cls)
        f.num = num
        f.den = den
        f._hash = None
        return f

    @classmethod
    def zero(cls, nvars: int) -> "ScalarField":
        f = _FIELD_ZERO.get(nvars)
        if f is None:
            f = _FIELD_ZERO[nvars] = object.__new__(cls)
            f.num, f.den, f._hash = Polynomial.zero(nvars), Polynomial.one(nvars), None
        return f

    @classmethod
    def one(cls, nvars: int) -> "ScalarField":
        f = _FIELD_ONE.get(nvars)
        if f is None:
            f = _FIELD_ONE[nvars] = object.__new__(cls)
            f.num, f.den, f._hash = Polynomial.one(nvars), Polynomial.one(nvars), None
        return f

    @classmethod
    def const(cls, nvars: int, value: Coeff) -> "ScalarField":
        return cls.from_polynomial(Polynomial.const(nvars, value))

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
        return not self.num.packed

    def _check(self, other: "ScalarField"):
        """The chart check of a zero operand, which reaches no Polynomial `_check`."""
        if self.nvars != other.nvars:
            raise DimensionMismatch(f"{self.nvars} vs {other.nvars} variables")

    def __add__(self, other: "ScalarField") -> "ScalarField":
        if self.is_zero():
            self._check(other)
            return other
        if other.is_zero():
            self._check(other)
            return self
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if d1 == d2:
            num = n1 + n2
            if num.is_zero():
                return ScalarField.zero(self.nvars)
            if d1.is_one():
                return ScalarField._raw(num, d1)
            return _monic(*_cancel(num, d1))
        # Henrici: with reduced inputs only gcd(d1, d2) can cancel
        g0 = poly_gcd(d1, d2)
        if g0.is_one():
            return ScalarField._raw(n1 * d2 + n2 * d1, d1 * d2)
        d2r = d2.divexact(g0)
        t = n1 * d2r + n2 * d1.divexact(g0)
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
        if self.is_zero() or other.is_zero():
            self._check(other)
            return ScalarField.zero(self.nvars)
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if d1.is_one() and d2.is_one():
            return ScalarField._raw(n1 * n2, d1)
        if not d2.is_one():
            n1, d2 = _cancel(n1, d2)
        if not d1.is_one():
            n2, d1 = _cancel(n2, d1)
        return _monic(n1 * n2, d1 * d2)

    def __truediv__(self, other: "ScalarField") -> "ScalarField":
        return self * other.reciprocal()

    def reciprocal(self) -> "ScalarField":
        if self.is_zero():
            raise DivisionByZero("division by the zero field")
        return _monic(self.den, self.num)

    def __pow__(self, e: int) -> "ScalarField":
        # powers of coprime num and den stay coprime, and a power of a monic
        # den stays monic, so the quotient needs no gcd
        f = self.reciprocal() if e < 0 else self
        return ScalarField._raw(f.num ** abs(e), f.den ** abs(e))

    def derivative(self, var: int) -> "ScalarField":
        """Partial derivative by coordinate `var` (0-based), quotient rule;
        taken once per sharing scope (see shared)."""
        return shared(ScalarField._derivative, self, var)

    def _derivative(self, var: int) -> "ScalarField":
        if self.den.is_one():
            return ScalarField._raw(self.num.derivative(var), self.den)
        num = self.num.derivative(var) * self.den - self.num * self.den.derivative(var)
        return ScalarField(num, self.den * self.den)

    def evaluate(self, point: Sequence[Coeff]) -> Fraction:
        dval = self.den.evaluate(point)
        if dval == 0:
            raise PoleAtPoint(f"denominator vanishes at {tuple(point)}")
        return self.num.evaluate(point) / dval

    def __eq__(self, other) -> bool:
        return isinstance(other, ScalarField) and self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.num, self.den))
            self._hash = h
        return h

    def __reduce__(self):
        # through the constructor, so zero and one stay shared
        return ScalarField, (self.num, self.den)

    def __repr__(self) -> str:
        return f"ScalarField({scalar_text(self)!r})"

    def __str__(self) -> str:
        return scalar_text(self)


def _monic(num: Polynomial, den: Polynomial) -> ScalarField:
    """Finish a known-reduced quotient: normalize den to leading coefficient 1."""
    # monic: packed leading coefficient == den (x1 + 1/2 is (2 x1 + 1) over 2)
    lc, d = den.packed[0][1], den.den
    if lc != 1 or d != 1:
        num = num._times(d, lc)
        den = den._times(d, lc)
    return ScalarField._raw(num, den)


def _cancel(num: Polynomial, den: Polynomial) -> tuple:
    """num and den, each divided by their gcd."""
    g = poly_gcd(num, den)
    if g.is_one():
        return num, den
    return num.divexact(g), den.divexact(g)


# ---------------------------------------------------------------------------
# sums of products
# ---------------------------------------------------------------------------


def sum_of_products(nvars: int, plus: Iterable, minus: Iterable = ()) -> ScalarField:
    """Sum of f*g over the (f, g) pairs of `plus`, minus the sum over `minus`.

    Every bracket, pairing and matrix entry downstream is such a sum.  Pairs
    of polynomials (both denominators 1) are fused, as in Monagan & Pearce's
    sparse products: every term product goes into one packed key ->
    coefficient dict, and the dict is sorted once; a fused product of total
    degree above MAX_TOTAL_DEGREE raises EngineError.  Pairs with a
    denominator go through ScalarField `*` and `+`, and the fused polynomial
    part is added to them once, at the end.  Pairs with a zero operand are
    skipped.  A lone fused pair is one Polynomial `*`: a one-term operand
    shifts or scales the other's keys, and a factor 1 returns it shared.  In
    each fused pair the operand with fewer terms is the outer loop, whichever
    side it is on: most Cartan products are a full component times a
    derivative one degree lower, long times short, and the outer loop pays a
    scaling and a loop start per term.  The result is canonical, so it equals
    the fold of `*` and `+` exactly, in either operand order.
    """
    fused = []
    rest = None
    for sign, pairs in ((1, plus), (-1, minus)):
        for f, g in pairs:
            a, b = f.num, g.num
            if a.nvars != nvars or b.nvars != nvars:
                raise DimensionMismatch(f"{a.nvars} and {b.nvars} vs {nvars} variables")
            if not a.packed or not b.packed:
                continue
            if f.den.is_one() and g.den.is_one():
                _check_degree(a.total_degree() + b.total_degree())
                fused.append((a, b, sign))
            else:
                p = f * g if sign > 0 else -(f * g)
                rest = p if rest is None else rest + p
    if fused:
        if len(fused) == 1:
            a, b, sign = fused[0]
            num = a * b if sign > 0 else -(a * b)
        else:
            num = _sum_products(nvars, fused)
        total = ScalarField._raw(num, Polynomial.one(nvars))
        return total if rest is None else rest + total
    return ScalarField.zero(nvars) if rest is None else rest


def _sum_scaled(nvars: int, plus: list, minus: list = ()) -> tuple:
    """The nvars components of the sum of f * V over the (f, V) pairs of
    `plus`, minus the sum over `minus`: f a field and V a sequence of nvars
    fields, all on the chart, as the Cartan operators pass them.

    If any f or component of V has a polynomial denominator, each component
    is one sum_of_products of the (f, V[k]) pairs, which adds the products
    with a denominator through ScalarField `+`.  Otherwise the pairs whose V
    is not zero make one call to _sum_products, with V in nvars packed
    slots; a product of total degree above MAX_TOTAL_DEGREE raises
    EngineError.  A zero component is the shared zero, and each component
    equals its sum_of_products."""
    polys = []
    for sign, pairs in ((1, plus), (-1, minus)):
        for f, vec in pairs:
            if not (f.den.is_one() and all([v.den.is_one() for v in vec])):
                return tuple(
                    sum_of_products(nvars, [(g, w[k]) for g, w in plus], [(g, w[k]) for g, w in minus])
                    for k in range(nvars)
                )
            nums = [v.num for v in vec]
            if any([p.packed for p in nums]):
                polys.append((f.num, nums, sign))
    if not polys:
        return (ScalarField.zero(nvars),) * nvars
    one = Polynomial.one(nvars)
    return tuple([ScalarField._raw(p, one) for p in _sum_products(nvars, polys, nvars)])


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
    if not p.packed:
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

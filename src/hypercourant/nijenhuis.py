"""Nijenhuis concomitants, canonical connections, torsion, and the full
identity suites for almost hypercomplex structures on TM (+) T*M.

The concomitant of two endomorphisms F, G is the eight-term expression

    N_{F,G}(X,Y) = [[FX,GY]] - F[[X,GY]] - G[[FX,Y]] + FG[[X,Y]]
                 + [[GX,FY]] - G[[X,FY]] - F[[GX,Y]] + GF[[X,Y]]

built on the Dorfman bracket.  It is symmetric in F and G and always
scalar-linear in its second slot; first-slot linearity needs F and G to be
pairing-orthogonal with square -1 and (for F != G) anticommuting, which every
pair drawn from a certified triple satisfies.  The defect is computed and
reported rather than assumed away (see linearity_defect_formula).

The three canonical connections come from one formula evaluated on the three
cyclic rotations of (I, J, K); variants are named by the rotation fed in:

    "ijk":  nabla_X Y  = -1/2 K( [[JY,IX]] - J[[Y,IX]] - I[[JY,X]] + JI[[Y,X]] )
    "jki":  the same with (I,J,K) -> (J,K,I)
    "kij":  the same with (I,J,K) -> (K,I,J)

Vanishing of a concomitant is decided exactly on the 2n x 2n pairs of frame
sections: restricted to a certified triple the concomitant is bilinear over
scalars, so it vanishes everywhere exactly when it vanishes on the frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .courant import (
    GSection,
    anchor_apply,
    basis_sections,
    courant_bracket,
    d_map,
    dorfman,
    pairing,
    random_section,
)
from .endo import GEndo, HKTriple
from .errors import DimensionMismatch, InconsistentEquivalence
from .report import Witness, check, witness_for
from .sampling import random_scalar, suite_rng
from .scalar import ScalarField

VARIANTS = ("ijk", "jki", "kij")


@dataclass(frozen=True)
class Concomitant:
    """The concomitant of a fixed endomorphism pair, as a callable on
    section pairs.  Symmetric in the two endomorphisms."""

    f: GEndo
    g: GEndo

    def __call__(self, x: GSection, y: GSection) -> GSection:
        return concomitant(self.f, self.g, x, y)


@dataclass(frozen=True)
class CanonicalConnection:
    """One of the three canonical connections of a certified triple."""

    hk: HKTriple
    variant: str = "ijk"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown connection variant {self.variant!r}")
        self.hk.require_certified()

    def __call__(self, x: GSection, y: GSection) -> GSection:
        return connection(self.hk, self.variant, x, y)

    def torsion(self, x: GSection, y: GSection) -> GSection:
        return torsion(self.hk, self.variant, x, y)

    def nabla(self, f: GEndo, x: GSection, y: GSection) -> GSection:
        return nabla_endo(self.hk, self.variant, f, x, y)


def concomitant(f: GEndo, g: GEndo, x: GSection, y: GSection) -> GSection:
    """The eight-term Nijenhuis concomitant N_{F,G}(X,Y)."""
    if not (f.n == g.n == x.dim == y.dim):
        raise DimensionMismatch("concomitant operands live on different charts")
    return _concomitant(dorfman, f, g, x, y)


def _concomitant(br, f: GEndo, g: GEndo, x: GSection, y: GSection) -> GSection:
    # the eight terms, with the bracket `br` passed in so that a caller can
    # share brackets between concomitants
    fx, gx = f.apply(x), g.apply(x)
    fy, gy = f.apply(y), g.apply(y)
    b_xy = br(x, y)
    out = br(fx, gy) - f.apply(br(x, gy)) - g.apply(br(fx, y))
    out = out + f.apply(g.apply(b_xy))
    out = out + br(gx, fy) - g.apply(br(x, fy)) - f.apply(br(gx, y))
    out = out + g.apply(f.apply(b_xy))
    return out


def concomitant_linearity_defect(
    f: GEndo, g: GEndo, fun: ScalarField, x: GSection, y: GSection
) -> tuple:
    """(N(fX,Y) - f N(X,Y),  N(X,fY) - f N(X,Y)), both computed directly.

    The second component is always zero; the first vanishes when F and G are
    drawn from a certified triple, and is generally nonzero otherwise.
    """
    n0 = concomitant(f, g, x, y)
    first = concomitant(f, g, x.smul(fun), y) - n0.smul(fun)
    second = concomitant(f, g, x, y.smul(fun)) - n0.smul(fun)
    return first, second


def linearity_defect_formula(
    f: GEndo, g: GEndo, fun: ScalarField, x: GSection, y: GSection
) -> GSection:
    """Closed form of the first-slot defect:

        2<FX,GY>Df - 2<X,GY>F Df - 2<FX,Y>G Df + 2<X,Y>FG Df
        + (the same four terms with F and G exchanged).

    Derived by expanding every bracket of N(fX, Y) with the two Leibniz rules
    of the Dorfman bracket; verified against brute force in the test suite.
    """
    two = ScalarField.const(x.dim, 2)
    df = d_map(fun)
    fdf, gdf = f.apply(df), g.apply(df)
    fgdf, gfdf = f.apply(gdf), g.apply(fdf)
    fx, gx = f.apply(x), g.apply(x)
    fy, gy = f.apply(y), g.apply(y)
    out = df.smul(two * pairing(fx, gy)) - fdf.smul(two * pairing(x, gy))
    out = out - gdf.smul(two * pairing(fx, y)) + fgdf.smul(two * pairing(x, y))
    out = out + df.smul(two * pairing(gx, fy)) - gdf.smul(two * pairing(x, fy))
    out = out - fdf.smul(two * pairing(gx, y)) + gfdf.smul(two * pairing(x, y))
    return out


def delta(hk: HKTriple, fun: ScalarField, x: GSection, y: GSection) -> GSection:
    """Delta_f(X,Y) = <X,Y>Df + <IX,Y>I Df + <JX,Y>J Df + <KX,Y>K Df."""
    hk.require_certified()
    df = d_map(fun)
    out = df.smul(pairing(x, y))
    for endo in (hk.i, hk.j, hk.k):
        out = out + endo.apply(df).smul(pairing(endo.apply(x), y))
    return out


def _rotation(hk: HKTriple, variant: str) -> tuple:
    if variant == "ijk":
        return hk.i, hk.j, hk.k
    if variant == "jki":
        return hk.j, hk.k, hk.i
    if variant == "kij":
        return hk.k, hk.i, hk.j
    raise ValueError(f"unknown connection variant {variant!r}")


def connection(hk: HKTriple, variant: str, x: GSection, y: GSection) -> GSection:
    """The canonical connection for one cyclic rotation of the triple."""
    hk.require_certified()
    p, q, r = _rotation(hk, variant)
    px = p.apply(x)
    qy = q.apply(y)
    inner = dorfman(qy, px) - q.apply(dorfman(y, px)) - p.apply(dorfman(qy, x))
    inner = inner + q.apply(p.apply(dorfman(y, x)))
    return r.apply(inner).smul(ScalarField.const(x.dim, Fraction(-1, 2)))


def torsion(hk: HKTriple, variant: str, x: GSection, y: GSection) -> GSection:
    """T(X,Y) = nabla_X Y - nabla_Y X - [X,Y], with the skew bracket."""
    return connection(hk, variant, x, y) - connection(hk, variant, y, x) - courant_bracket(x, y)


def nabla_endo(hk: HKTriple, variant: str, f: GEndo, x: GSection, y: GSection) -> GSection:
    """(nabla_X F)Y = nabla_X(FY) - F(nabla_X Y)."""
    return connection(hk, variant, x, f.apply(y)) - f.apply(connection(hk, variant, x, y))


def torsion_formula_residual(hk: HKTriple, variant: str, x: GSection, y: GSection) -> GSection:
    """T(X,Y) - (I D<X,IY> + J D<X,JY> + K D<X,KY>)."""
    rhs = GSection.zero(x.dim)
    for endo in (hk.i, hk.j, hk.k):
        rhs = rhs + endo.apply(d_map(pairing(x, endo.apply(y))))
    return torsion(hk, variant, x, y) - rhs


# ---------------------------------------------------------------------------
# identity suites
# ---------------------------------------------------------------------------


def check_connection_laws(
    hk: HKTriple,
    variant: str = "ijk",
    trials: int = 10,
    seed: int = 0,
    degree: int = 1,
    extra_pairs: list | None = None,
) -> list:
    """Exactly verify the two defining laws of the connection:

        nabla_{fX} Y = f nabla_X Y
        nabla_X (fY) = (rho(X)f) Y + f nabla_X Y - Delta_f(X,Y)

    `extra_pairs` adds named deterministic (X, Y) inputs (the scalar used
    with them is the first coordinate function).
    """
    hk.require_certified()
    n = hk.n
    rng = suite_rng(seed, f"connection-laws-{variant}")
    inputs = []
    for t in range(trials):
        inputs.append(
            (
                t,
                "",
                random_section(rng, n, degree),
                random_section(rng, n, degree),
                random_scalar(rng, n, degree),
            )
        )
    for name, x, y in extra_pairs or ():
        inputs.append((None, f"[sections:{name}]", x, y, ScalarField.coordinate(n, 0)))

    def trial(item):
        t, tag, x, y, fun = item
        f_nab = connection(hk, variant, x, y).smul(fun)
        r1 = connection(hk, variant, x.smul(fun), y) - f_nab
        r2 = connection(hk, variant, x, y.smul(fun)) - y.smul(anchor_apply(x, fun)) - f_nab
        r2 = r2 + delta(hk, fun, x, y)
        return [
            check(f"connection-law-tensorial[{variant}]{tag}", r1, t),
            check(f"connection-law-leibniz-delta[{variant}]{tag}", r2, t),
        ]

    return [r for item in inputs for r in trial(item)]


def check_identities(
    hk: HKTriple,
    trials: int = 10,
    seed: int = 0,
    degree: int = 1,
    extra_pairs: list | None = None,
) -> list:
    """The unconditional identities of the primary connection, exactly:

    nabla J = 0; the (nabla I) formula against N_{I,J}; the bracket
    decomposition; and skew-symmetry of N_{I,J}.  All hold for every
    certified almost hypercomplex structure, integrable or not.
    """
    hk.require_certified()
    n = hk.n
    half = ScalarField.const(n, Fraction(1, 2))
    rng = suite_rng(seed, "identities")
    inputs = [
        (t, random_section(rng, n, degree), random_section(rng, n, degree))
        for t in range(trials)
    ]
    inputs += [(None, x, y) for _, x, y in (extra_pairs or ())]

    def trial(item):
        t, x, y = item
        out = []
        nab_xy = connection(hk, "ijk", x, y)
        r = connection(hk, "ijk", x, hk.j.apply(y)) - hk.j.apply(nab_xy)
        out.append(check("nabla-j-vanishes", r, t))

        nij_y = concomitant(hk.i, hk.j, x, y)
        nij_iy = concomitant(hk.i, hk.j, x, hk.i.apply(y))
        r = (
            connection(hk, "ijk", x, hk.i.apply(y))
            - hk.i.apply(nab_xy)
            - hk.k.apply(nij_iy).smul(half)
            - hk.j.apply(nij_y).smul(half)
        )
        out.append(check("nabla-i-concomitant-formula", r, t))

        lhs = dorfman(x, y) + hk.k.apply(nij_y).smul(half)
        rhs = nab_xy - connection(hk, "ijk", y, x) + d_map(pairing(x, y))
        for endo in (hk.i, hk.j, hk.k):
            rhs = rhs - endo.apply(d_map(pairing(x, endo.apply(y))))
        out.append(check("bracket-decomposition", lhs - rhs, t))

        r = nij_y + concomitant(hk.i, hk.j, y, x)
        out.append(check("concomitant-skew", r, t))
        return out

    return [r for item in inputs for r in trial(item)]


def check_delta_properties(
    hk: HKTriple,
    trials: int = 10,
    seed: int = 0,
    degree: int = 1,
) -> list:
    """Delta_f compatibility with I, J, K and its symmetric part."""
    hk.require_certified()
    n = hk.n
    two = ScalarField.const(n, 2)
    rng = suite_rng(seed, "delta")
    inputs = [
        (
            t,
            random_section(rng, n, degree),
            random_section(rng, n, degree),
            random_scalar(rng, n, degree),
        )
        for t in range(trials)
    ]

    def trial(item):
        t, x, y, fun = item
        out = []
        base = delta(hk, fun, x, y)
        for name, endo in (("i", hk.i), ("j", hk.j), ("k", hk.k)):
            r = delta(hk, fun, x, endo.apply(y)) - endo.apply(base)
            out.append(check(f"delta-compat-{name}", r, t))
        r = base + delta(hk, fun, y, x) - d_map(fun).smul(two * pairing(x, y))
        out.append(check("delta-symmetric-part", r, t))
        return out

    return [r for item in inputs for r in trial(item)]


# ---------------------------------------------------------------------------
# theorem report
# ---------------------------------------------------------------------------

CONCOMITANT_KEYS = ("II", "JJ", "KK", "IJ", "JK", "KI")


@dataclass(frozen=True)
class ConcomitantStatus:
    vanishes: bool
    witness: Witness | None = None

    def to_dict(self) -> dict:
        out = {"vanishes": self.vanishes}
        if self.witness is not None:
            out["witness"] = self.witness.to_dict()
        return out


@dataclass(frozen=True)
class TheoremReport:
    """Observed vanishing pattern and connection-level consequences."""

    structure_id: str
    trials: int
    seed: int
    concomitants: dict
    connections_agree: bool
    parallel: dict
    torsion_formula: bool
    verdict: str
    consistency: str

    def to_dict(self) -> dict:
        return {
            "structure-id": self.structure_id,
            "trials": self.trials,
            "seed": self.seed,
            "concomitants": {k: v.to_dict() for k, v in self.concomitants.items()},
            "connection-equality": self.connections_agree,
            "parallel": dict(self.parallel),
            "torsion-formula": self.torsion_formula,
            "verdict": self.verdict,
            "consistency": self.consistency,
        }

    @property
    def passed(self) -> bool:
        return self.consistency == "ok"


def concomitant_statuses(hk: HKTriple) -> dict:
    """Decide vanishing of all six concomitants on the frame pairs.

    Each concomitant is evaluated on the frame pairs in row-major order; the
    first nonzero pair supplies its witness, and it vanishes when no pair
    is nonzero.  The six concomitants bracket the same images of frame
    sections, so each distinct bracket is computed once per call.
    """
    hk.require_certified()
    br = lru_cache(maxsize=None)(dorfman)
    members = {"I": hk.i, "J": hk.j, "K": hk.k}
    frame = basis_sections(hk.n)
    status = {}
    for key in CONCOMITANT_KEYS:
        f, g = key
        status[key] = ConcomitantStatus(True)
        for (xi, x), (yi, y) in product(enumerate(frame), repeat=2):
            residual = _concomitant(br, members[f], members[g], x, y)
            w = witness_for(residual, context=f"N[{f},{g}] on family pair ({xi}, {yi})")
            if w is not None:
                status[key] = ConcomitantStatus(False, w)
                break
    return status


def theorem_report(
    hk: HKTriple,
    trials: int = 10,
    seed: int = 0,
    structure_id: str = "unnamed",
    degree: int = 1,
) -> TheoremReport:
    """Certify the equivalence pattern on one structure.

    The three vanishing conditions (N_II = N_JJ = 0, N_IJ = 0, all six zero)
    must agree.  When N_IJ = 0 the three connections must coincide, I, J, K
    must all be parallel, and the torsion formula must hold; when N_IJ != 0
    at least one of those consequences must visibly fail.  A contradiction
    raises InconsistentEquivalence: it would mean the engine itself is wrong.

    The connection-level consequences are sampled on `trials` random section
    pairs, so at least one trial is required.
    """
    if trials < 1:
        raise ValueError("theorem_report needs at least one trial")
    hk.require_certified()
    n = hk.n
    status = concomitant_statuses(hk)

    rng = suite_rng(seed, "theorem")
    pairs = [
        (random_section(rng, n, degree), random_section(rng, n, degree))
        for _ in range(trials)
    ]

    connections_agree = torsion_ok = True
    parallel = {"I": True, "J": True, "K": True}
    for x, y in pairs:
        base = connection(hk, "ijk", x, y)
        connections_agree = connections_agree and all(
            (base - connection(hk, v, x, y)).is_zero() for v in ("jki", "kij")
        )
        for name, endo in (("I", hk.i), ("J", hk.j), ("K", hk.k)):
            parallel[name] = parallel[name] and (
                connection(hk, "ijk", x, endo.apply(y)) - endo.apply(base)
            ).is_zero()
        torsion_ok = torsion_ok and torsion_formula_residual(hk, "ijk", x, y).is_zero()

    cond_pair = status["II"].vanishes and status["JJ"].vanishes
    cond_ij = status["IJ"].vanishes
    cond_all = all(status[k].vanishes for k in CONCOMITANT_KEYS)

    consistent = cond_pair == cond_ij == cond_all
    if cond_ij:
        consistent = consistent and connections_agree and all(parallel.values()) and torsion_ok
    else:
        consistent = consistent and ((not parallel["I"]) or (not torsion_ok))

    rep = TheoremReport(
        structure_id=structure_id,
        trials=trials,
        seed=seed,
        concomitants=status,
        connections_agree=connections_agree,
        parallel=parallel,
        torsion_formula=torsion_ok,
        verdict="hypercomplex" if cond_all else "not-hypercomplex",
        consistency="ok" if consistent else "violated",
    )
    if not consistent:
        raise InconsistentEquivalence(
            "observed vanishing pattern contradicts the proved equivalences "
            "(this is an engine bug, not a property of the structure)",
            report=rep,
        )
    return rep

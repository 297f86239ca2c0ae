"""Nijenhuis concomitants, canonical connections, torsion, and the full
identity suites for almost hypercomplex structures on TM (+) T*M.

Everything here is built on one four-term expression of two endomorphisms
F, G and a bracket br:

    H_{F,G}(X,Y) = br(FX,GY) - F br(X,GY) - G br(FX,Y) + FG br(X,Y)

Two formulas use it, both with the Dorfman bracket:

  - the Nijenhuis concomitant
        N_{F,G}(X,Y) = H_{F,G}(X,Y) + H_{G,F}(X,Y);
  - the canonical connection of the cyclic rotation (P, Q, R) of (I, J, K)
        nabla_X Y = -1/2 R H_{Q,P}(Y,X);
    the variants "ijk", "jki" and "kij" are named by the rotation fed in.

The concomitant is symmetric in F and G and always scalar-linear in its
second slot; first-slot linearity needs F and G to be pairing-orthogonal
with square -1 and (for F != G) anticommuting, which every pair drawn from a
certified triple satisfies.  The test oracles compute the first-slot defect
N(fX,Y) - f N(X,Y) directly and in closed form, the latter as the two
four-term halves with br(a,b) = 2<a,b> Df.

Vanishing of a concomitant is decided exactly on the 2n x 2n pairs of frame
sections: restricted to a certified triple the concomitant is bilinear over
scalars, so it vanishes everywhere exactly when it vanishes on the frame.
The connection laws, the identities, the Delta properties and the theorem's
connection checks are one pass, connection_pass, which draws each trial's
(X, Y, f) once from one seeded stream and runs every selected check on it.

Within one input the formulas bracket the same section pairs and take the
same derivatives and gcds many times, so each value goes through
scalar.shared and is computed once per sharing scope.  Only the three loops
that own a scope open one; a formula function never does, and outside a
scope it computes every value.  A standalone concomitant therefore takes
[[X,Y]] once in each half; a library caller who wants it shared opens
scalar.sharing around the call.  Each kind of scope is one predicate:
  - connection_pass opens an input's (_all_but_images) per input; it holds
    every bracket, derivative and gcd, for one input only (a pass-long one
    raised flat's peak memory by 30 %), and no image, since images recur
    less there and are large (+10 %);
  - concomitant_statuses opens one (_everything) that holds images too,
    seeded with F e_a = column a of F, as all six concomitants apply I, J,
    K to the same frame sections and brackets;
  - _law_checks runs the f-scaled connections in one nested in the input's
    (_brackets_of), which reads it but holds only [[Y,fX]] and [[fY,X]],
    the brackets every rotation takes (holding more cost 11-13 %), and no
    gcd: one taken there is read from the input's scope or computed.
A miss calls the module globals dorfman and GEndo.apply as they are then,
so a patched or traced one sees every computed call.  The scopes are
context variables, so each thread has its own.
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import product
from typing import NamedTuple

from .courant import (
    GSection,
    anchor_apply,
    basis_sections,
    d_map,
    dorfman,
    pairing,
    random_section,
)
from .endo import GEndo, HKTriple
from .errors import InconsistentEquivalence
from .report import Witness, check, witness_for
from .sampling import random_scalar, suite_rng
from .scalar import ScalarField, shared, sharing

VARIANTS = ("ijk", "jki", "kij")


def _all_but_images(key) -> bool:
    return key[0] is not GEndo.apply


def _everything(key) -> bool:
    return True


def _brackets_of(*sections):
    """The rule of the laws' nested scope: brackets of two of `sections`."""
    held = frozenset(sections)
    return lambda key: key[0] is dorfman and held.issuperset(key[1:])


def _bracket(s: GSection, t: GSection) -> GSection:
    return shared(dorfman, s, t)


def _image(f: GEndo, s: GSection) -> GSection:
    return shared(GEndo.apply, f, s)


def _four_terms(br, f: GEndo, g: GEndo, x: GSection, y: GSection) -> GSection:
    """H_{F,G}(X,Y) = br(FX,GY) - F br(X,GY) - G br(FX,Y) + FG br(X,Y)."""
    fx, gy = _image(f, x), _image(g, y)
    out = br(fx, gy) - _image(f, br(x, gy)) - _image(g, br(fx, y))
    return out + _image(f, _image(g, br(x, y)))


def concomitant(f: GEndo, g: GEndo, x: GSection, y: GSection) -> GSection:
    """The eight-term Nijenhuis concomitant N_{F,G}(X,Y)."""
    return _four_terms(_bracket, f, g, x, y) + _four_terms(_bracket, g, f, x, y)


def delta(hk: HKTriple, fun: ScalarField, x: GSection, y: GSection) -> GSection:
    """Delta_f(X,Y) = <X,Y>Df + <IX,Y>I Df + <JX,Y>J Df + <KX,Y>K Df."""
    hk.require_certified()
    df = d_map(fun)
    out = df.smul(pairing(x, y))
    for endo in hk.members().values():
        out = out + _image(endo, df).smul(pairing(_image(endo, x), y))
    return out


def _rotation(hk: HKTriple, variant: str) -> tuple:
    """(P, Q, R): the members named by the variant, "jki" giving (J, K, I)."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown connection variant {variant!r}")
    return tuple(hk.members()[name.upper()] for name in variant)


def connection(hk: HKTriple, variant: str, x: GSection, y: GSection) -> GSection:
    """The canonical connection for one cyclic rotation (P, Q, R) of the
    triple: nabla_X Y = -1/2 R H_{Q,P}(Y,X)."""
    hk.require_certified()
    p, q, r = _rotation(hk, variant)
    inner = _four_terms(_bracket, q, p, y, x)
    return _image(r, inner).smul(ScalarField.const(x.dim, Fraction(-1, 2)))


def torsion(hk: HKTriple, variant: str, x: GSection, y: GSection) -> GSection:
    """T(X,Y) = nabla_X Y - nabla_Y X - [X,Y], with the skew bracket
    [X,Y] = ([[X,Y]] - [[Y,X]]) / 2 from the brackets the connections took."""
    skew = (_bracket(x, y) - _bracket(y, x)).half()
    return connection(hk, variant, x, y) - connection(hk, variant, y, x) - skew


def _torsion_rhs(hk: HKTriple, x: GSection, y: GSection) -> GSection:
    """I D<X,IY> + J D<X,JY> + K D<X,KY>, the torsion formula's right side."""
    rhs = GSection.zero(x.dim)
    for endo in hk.members().values():
        rhs = rhs + _image(endo, d_map(pairing(x, _image(endo, y))))
    return rhs


def torsion_formula_residual(hk: HKTriple, variant: str, x: GSection, y: GSection) -> GSection:
    """T(X,Y) - (I D<X,IY> + J D<X,JY> + K D<X,KY>)."""
    return torsion(hk, variant, x, y) - _torsion_rhs(hk, x, y)


# ---------------------------------------------------------------------------
# theorem report
# ---------------------------------------------------------------------------

CONCOMITANT_KEYS = ("II", "JJ", "KK", "IJ", "JK", "KI")


class ConcomitantStatus(NamedTuple):
    vanishes: bool
    witness: Witness | None = None

    def to_dict(self) -> dict:
        out = {"vanishes": self.vanishes}
        if self.witness is not None:
            out["witness"] = self.witness.to_dict()
        return out


class TheoremReport(NamedTuple):
    """The theorem alone: the concomitants, connection flags, verdict, consistency."""

    concomitants: dict
    connections_agree: bool
    parallel: dict
    torsion_formula: bool
    verdict: str
    consistency: str

    def to_dict(self) -> dict:
        return {
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
    is nonzero.  The call is one sharing scope that holds images too, the
    frame images being matrix columns.
    """
    hk.require_certified()
    members = hk.members()
    frame = basis_sections(hk.n)
    status = {}
    with sharing(_everything) as scope:
        for f in members.values():
            scope.update(((GEndo.apply, f, e), col) for e, col in zip(frame, f.columns()))
        for key in CONCOMITANT_KEYS:
            a, b = key
            f, g = members[a], members[b]
            status[key] = ConcomitantStatus(True)
            for (xi, x), (yi, y) in product(enumerate(frame), repeat=2):
                residual = concomitant(f, g, x, y)
                w = witness_for(residual, context=f"N[{a},{b}] on family pair ({xi}, {yi})")
                if w is not None:
                    status[key] = ConcomitantStatus(False, w)
                    break
    return status


# ---------------------------------------------------------------------------
# the connection-level pass
# ---------------------------------------------------------------------------

CONNECTION_SUITES = ("connection-laws", "identities", "theorem")

INCONSISTENT = (
    "observed vanishing pattern contradicts the proved equivalences "
    "(this is an engine bug, not a property of the structure)"
)


def _inputs(hk: HKTriple, seed: int, trials: int, degree: int) -> list:
    """The `trials` random inputs of the connection level, as (trial, X, Y, f)
    tuples drawn from the seed's one stream in the order X, Y, f."""
    hk.require_certified()
    n = hk.n
    rng = suite_rng(seed, "connection-level")
    out = []
    for t in range(trials):
        x = random_section(rng, n, degree)
        y = random_section(rng, n, degree)
        out.append((t, x, y, random_scalar(rng, n, degree)))
    return out


def _timed(seconds: dict, suite: str, fn, *args):
    """fn(*args), its wall time added to seconds[suite]."""
    started = time.perf_counter()
    out = fn(*args)
    seconds[suite] += time.perf_counter() - started
    return out


def _law_checks(hk: HKTriple, t: int, x, y, fun, out: dict) -> None:
    """Append the two laws of each connection on one input to out[variant];
    the f-scaled connections run in the nested scope of _brackets_of."""
    fx, fy = x.smul(fun), y.smul(fun)
    leibniz = y.smul(anchor_apply(x, fun)) - delta(hk, fun, x, y)
    f_nabs = [connection(hk, v, x, y).smul(fun) for v in VARIANTS]
    with sharing(_brackets_of(x, y, fx, fy)):
        for v, f_nab in zip(VARIANTS, f_nabs):
            r1 = connection(hk, v, fx, y) - f_nab
            r2 = connection(hk, v, x, fy) - leibniz - f_nab
            out[v].append(check(f"connection-law-tensorial[{v}]", r1, t))
            out[v].append(check(f"connection-law-leibniz-delta[{v}]", r2, t))


def _identity_checks(hk: HKTriple, t: int, x, y, fun, identities: list, deltas: list) -> None:
    """Append the four identities and the four Delta checks on one input."""
    half = ScalarField.const(hk.n, Fraction(1, 2))
    i, j, k = hk.i, hk.j, hk.k
    nab_xy = connection(hk, "ijk", x, y)
    r = connection(hk, "ijk", x, _image(j, y)) - _image(j, nab_xy)
    identities.append(check("nabla-j-vanishes", r, t))
    nij_y = concomitant(i, j, x, y)
    nij_iy = concomitant(i, j, x, _image(i, y))
    r = (
        connection(hk, "ijk", x, _image(i, y))
        - _image(i, nab_xy)
        - _image(k, nij_iy).smul(half)
        - _image(j, nij_y).smul(half)
    )
    identities.append(check("nabla-i-concomitant-formula", r, t))
    lhs = _bracket(x, y) + _image(k, nij_y).smul(half)
    rhs = nab_xy - connection(hk, "ijk", y, x) + d_map(pairing(x, y)) - _torsion_rhs(hk, x, y)
    identities.append(check("bracket-decomposition", lhs - rhs, t))
    r = nij_y + concomitant(i, j, y, x)
    identities.append(check("concomitant-skew", r, t))
    base = delta(hk, fun, x, y)
    for name, endo in hk.members().items():
        r = delta(hk, fun, x, _image(endo, y)) - _image(endo, base)
        deltas.append(check(f"delta-compat-{name.lower()}", r, t))
    r = base + delta(hk, fun, y, x) - d_map(fun).smul(ScalarField.const(hk.n, 2) * pairing(x, y))
    deltas.append(check("delta-symmetric-part", r, t))


def _theorem_flags(hk: HKTriple, x, y, agree: bool, parallel: dict, torsion_ok: bool) -> tuple:
    """The flags (agree, parallel, torsion_ok) after one more input."""
    base = connection(hk, "ijk", x, y)
    agree = agree and all((base - connection(hk, v, x, y)).is_zero() for v in ("jki", "kij"))
    parallel = {
        name: parallel[name]
        and (connection(hk, "ijk", x, _image(endo, y)) - _image(endo, base)).is_zero()
        for name, endo in hk.members().items()
    }
    torsion_ok = torsion_ok and torsion_formula_residual(hk, "ijk", x, y).is_zero()
    return agree, parallel, torsion_ok


def _theorem(hk: HKTriple, flags: tuple):
    """The report of the six concomitants and the flags, consistent or not."""
    status = concomitant_statuses(hk)
    agree, parallel, torsion_ok = flags
    cond_pair = status["II"].vanishes and status["JJ"].vanishes
    cond_ij = status["IJ"].vanishes
    cond_all = all(status[k].vanishes for k in CONCOMITANT_KEYS)
    consistent = (
        cond_pair == cond_ij == cond_all
        and torsion_ok == cond_ij
        and (not cond_ij or (agree and all(parallel.values())))
    )
    return TheoremReport(
        concomitants=status,
        connections_agree=agree,
        parallel=parallel,
        torsion_formula=torsion_ok,
        verdict="hypercomplex" if cond_all else "not-hypercomplex",
        consistency="ok" if consistent else "violated",
    )


def connection_pass(hk: HKTriple, suites, trials, seed, degree) -> tuple:
    """Run the selected suites of CONNECTION_SUITES, each on every trial's
    (X, Y, f), drawn once.  Returns ({suite: result}, {suite: seconds}): the
    checks of the laws by connection then by trial, of the identities for
    every trial then of Delta for every trial, and the TheoremReport,
    consistent or not, which holds the theorem alone: trials, seed and
    degree are the caller's to report.  All checks of an input run in one
    sharing scope, and a shared value is timed to the suite that computes it
    first: the connections nabla_X Y to the laws.  Each suite's part is its
    own call, so its values outside the scope are freed when it ends."""
    laws, identities, theorem = (s in suites for s in CONNECTION_SUITES)
    seconds = dict.fromkeys(suites, 0.0)
    law_checks = {v: [] for v in VARIANTS}
    identity_checks, delta_checks = [], []
    flags = (True, {"I": True, "J": True, "K": True}, True)
    for t, x, y, fun in _inputs(hk, seed, trials, degree):
        with sharing(_all_but_images):
            if laws:
                _timed(seconds, "connection-laws", _law_checks, hk, t, x, y, fun, law_checks)
            if identities:
                args = (hk, t, x, y, fun, identity_checks, delta_checks)
                _timed(seconds, "identities", _identity_checks, *args)
            if theorem:
                flags = _timed(seconds, "theorem", _theorem_flags, hk, x, y, *flags)
    results = {}
    if laws:
        results["connection-laws"] = [c for v in VARIANTS for c in law_checks[v]]
    if identities:
        results["identities"] = identity_checks + delta_checks
    if theorem:
        results["theorem"] = _timed(seconds, "theorem", _theorem, hk, flags)
    return results, seconds


def check_connection_laws(hk: HKTriple, trials: int = 10, seed: int = 0, degree: int = 1) -> list:
    """Exactly verify the two defining laws of the connections "ijk", "jki"
    and "kij" on `trials` random inputs (X, Y, f) of connection_pass:

        nabla_{fX} Y = f nabla_X Y
        nabla_X (fY) = (rho(X)f) Y + f nabla_X Y - Delta_f(X,Y)
    """
    return connection_pass(hk, ("connection-laws",), trials, seed, degree)[0]["connection-laws"]


def check_identities(hk: HKTriple, trials: int = 10, seed: int = 0, degree: int = 1) -> list:
    """Exactly verify, on `trials` random inputs, the identities of the
    primary connection (nabla J = 0, the (nabla I) formula against N_{I,J},
    the bracket decomposition, skew-symmetry of N_{I,J}) and Delta_f's
    compatibility with I, J, K and its symmetric part.  All hold for every
    certified almost hypercomplex structure, integrable or not."""
    return connection_pass(hk, ("identities",), trials, seed, degree)[0]["identities"]


def theorem_report(hk: HKTriple, trials: int = 10, seed: int = 0, degree: int = 1) -> TheoremReport:
    """Certify the equivalence pattern on one structure.

    The three vanishing conditions (N_II = N_JJ = 0, N_IJ = 0, all six zero)
    must agree; the torsion formula must hold exactly when N_IJ = 0 (for a
    certified triple its residual is 1/2 K N_IJ); and when N_IJ = 0 the three
    connections must coincide and I, J, K must all be parallel.  Parallelism
    is a consequence, not a characterization: it may hold when N_IJ != 0.
    A contradiction raises InconsistentEquivalence: it would mean the engine
    itself is wrong.

    The connection-level consequences are sampled on the `trials` random
    inputs of connection_pass, so at least one trial is required.
    """
    if trials < 1:
        raise ValueError("theorem_report needs at least one trial")
    rep = connection_pass(hk, ("theorem",), trials, seed, degree)[0]["theorem"]
    if not rep.passed:
        raise InconsistentEquivalence(INCONSISTENT, report=rep)
    return rep

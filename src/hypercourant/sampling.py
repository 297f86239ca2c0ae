"""Seeded random polynomial data for the check suites.

Coefficients are drawn uniformly from -3..3 over all monomials up to a total
degree bound, so trial inputs are reproducible from (seed, trial index) and
reports stay byte-identical across runs.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from random import Random

from .scalar import Polynomial, ScalarField

COEFF_RANGE = (-3, 3)


def monomials_up_to(nvars: int, degree: int) -> list:
    """All exponent vectors of total degree <= degree, graded-lex ascending."""
    monos = []
    for d in range(degree + 1):
        for combo in combinations_with_replacement(range(nvars), d):
            mono = [0] * nvars
            for v in combo:
                mono[v] += 1
            monos.append(tuple(mono))
    monos.sort(key=lambda m: (sum(m), m))
    return monos


def random_polynomial(rng: Random, nvars: int, degree: int) -> Polynomial:
    lo, hi = COEFF_RANGE
    terms = {}
    for mono in monomials_up_to(nvars, degree):
        c = rng.randint(lo, hi)
        if c:
            terms[mono] = c
    return Polynomial(nvars, terms)


def random_scalar(rng: Random, nvars: int, degree: int) -> ScalarField:
    return ScalarField.from_polynomial(random_polynomial(rng, nvars, degree))


def require_sample(trials: int, degree: int) -> None:
    """Refuse a sample that decides nothing: no trial, or a negative degree,
    at which every sampled section is zero."""
    if trials < 1 or degree < 0:
        raise ValueError(f"need trials >= 1 and degree >= 0, not trials {trials} and degree {degree}")


def suite_rng(seed: int, suite: str) -> Random:
    """Independent deterministic stream per (seed, suite name)."""
    return Random(f"{seed}:{suite}")

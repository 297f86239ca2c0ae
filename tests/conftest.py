import signal
from contextlib import contextmanager

import pytest
from hypothesis import settings

from hypercourant import courant, scalar
from hypercourant.scalar import SHARING, ScalarField
from hypercourant.structures import DIM, conjugated, example
from oracle import corrupted_dorfman

# exact arithmetic on drawn inputs varies too much in time for a deadline
settings.register_profile("hypercourant", deadline=None)
settings.load_profile("hypercourant")


@pytest.fixture(autouse=True)
def no_sharing_scope_left_open():
    """Fail a test that leaves a sharing scope open, and close it for the next."""
    yield
    if SHARING.get() is not None:
        SHARING.set(None)
        pytest.fail("a sharing scope was left open")


@pytest.fixture(scope="session")
def flat():
    return example("flat-quaternionic")


@pytest.fixture(scope="session")
def holsymp():
    return example("holomorphic-symplectic")


@pytest.fixture(scope="session")
def noni():
    return example("nonintegrable")


@pytest.fixture(scope="session")
def all_triples(flat, holsymp, noni):
    return {"flat": flat, "holomorphic-symplectic": holsymp, "nonintegrable": noni}


@pytest.fixture(scope="session")
def conjugated_x2x3(flat):
    """The flat triple conjugated by diag(A, (A^T)^-1), A = diag(1 + x2 x3, 1,
    1, 1): certified, with polynomial denominators in two variables."""
    one, x2, x3 = ScalarField.one(DIM), ScalarField.coordinate(DIM, 1), ScalarField.coordinate(DIM, 2)
    return conjugated(flat, (one + x2 * x3, one, one, one))


@pytest.fixture
def corrupted_bracket(monkeypatch):
    """Replace the engine's Dorfman bracket with the mutant whose i_Y d xi
    term enters with the wrong sign."""
    monkeypatch.setattr(courant, "dorfman", corrupted_dorfman)


@pytest.fixture
def time_budget():
    """A context manager that fails the test once `seconds` of wall time have
    passed inside it, so that a computation that hangs fails instead."""

    @contextmanager
    def within(seconds: float):
        def expire(signum, frame):
            pytest.fail(f"over the budget of {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return within


@pytest.fixture
def gcd_calls(monkeypatch):
    """The operand pairs of every scalar._gcd_int call in the test,
    recursion included."""
    calls = []
    direct = scalar._gcd_int

    def counted(a, b):
        calls.append((a, b))
        return direct(a, b)

    monkeypatch.setattr(scalar, "_gcd_int", counted)
    return calls

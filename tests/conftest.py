import pytest
from hypothesis import settings

from hypercourant.scalar import SHARING
from hypercourant.structures import (
    flat_quaternionic,
    holomorphic_symplectic,
    nonintegrable_conjugated,
)

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
    return flat_quaternionic()


@pytest.fixture(scope="session")
def holsymp():
    return holomorphic_symplectic()


@pytest.fixture(scope="session")
def noni():
    return nonintegrable_conjugated()


@pytest.fixture(scope="session")
def all_triples(flat, holsymp, noni):
    return {"flat": flat, "holomorphic-symplectic": holsymp, "nonintegrable": noni}

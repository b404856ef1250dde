"""Shared fixtures. The expensive exact artifacts (Laplacian, charpoly,
pseudo-Green matrix) are computed once per session and reused everywhere."""

import pytest

from buckysob import _modular, green
from buckysob.graph import buckyball, face_census, find_antipodal_involution, laplacian
from buckysob.ratmat import charpoly


@pytest.fixture(scope="session")
def bucky():
    return buckyball()


@pytest.fixture(scope="session")
def census(bucky):
    return face_census(bucky)


@pytest.fixture(scope="session")
def lap(bucky):
    return laplacian(bucky)


@pytest.fixture(scope="session")
def p_char(lap):
    return charpoly(lap)


@pytest.fixture(scope="session")
def g_star(lap):
    return green.pseudo_green(lap)


@pytest.fixture(scope="session")
def g_one(lap):
    return green.green_matrix(lap, 1)


@pytest.fixture(scope="session")
def sigma(bucky):
    return find_antipodal_involution(bucky)


@pytest.fixture(scope="session")
def ca(p_char):
    return green.ca_via_charpoly(p_char)


@pytest.fixture
def chunks(monkeypatch):
    """(primes, whether each had a pivot in every column) for every chunk
    the kernels invert."""
    seen = []
    invert = _modular._invert

    def recording(a, primes):
        out = invert(a, primes)
        seen.append((list(primes), out[1]))
        return out

    monkeypatch.setattr(_modular, "_invert", recording)
    return seen

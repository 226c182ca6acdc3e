"""Shared session fixtures: the small complexes, fans, and ideals that
several test modules exercise.  Building them once keeps the suite fast
without changing what is tested."""

import pytest

from utrop.fans import assemble_fan
from utrop.symtrees import build_complex
from utrop.ualgebra import ideal_c
from utrop.ualgebra.signed import ConeCertifier


@pytest.fixture(scope="session")
def theta5():
    return build_complex("a", 5)


@pytest.fixture(scope="session")
def theta_as3():
    return build_complex("as", 3)


@pytest.fixture(scope="session")
def theta_cs3():
    return build_complex("cs", 3)


@pytest.fixture(scope="session")
def fan_c3(theta_as3):
    return assemble_fan(theta_as3, "c", check_intersections=False)


@pytest.fixture(scope="session")
def ideal_c3():
    return ideal_c(3)


@pytest.fixture(scope="session")
def certifiers_c3(fan_c3, ideal_c3):
    """One certification engine per proper face of the candidate fan."""
    out = []
    for face in fan_c3.proper_faces():
        w = fan_c3.interior_point(face)
        out.append((face, w, ConeCertifier(ideal_c3, w)))
    return out


@pytest.fixture(scope="session")
def census_c3(fan_c3, ideal_c3):
    """The exhaustive sign-pattern sweep at n=3 (64 patterns x 34 cones)."""
    from utrop.ualgebra.signed import search_sign_patterns_c

    return search_sign_patterns_c(3, fan_c3, ideal_c3)

from pathlib import Path

import numpy as np
import pytest

from kreincalc import (
    CalculusContext,
    DefinitizablePair,
    KreinSpace,
    RealPoly,
    generate,
    parse_instance,
)

FIXTURES = Path(__file__).parent / "fixtures"

PROFILES = ("diagonal", "jordan", "pontryagin")


def assert_same_set(got, expected, atol):
    """Every point of each list lies within ``atol`` of the other list."""
    dist = np.abs(np.asarray(got)[:, None] - np.asarray(expected)[None, :])
    assert dist.min(axis=1).max() <= atol and dist.min(axis=0).max() <= atol


def instance_matrix(count=100):
    """The (seed, n, profile) grid the acceptance suites run over."""
    return [(i, 2 + (i % 7), PROFILES[i % 3]) for i in range(count)]


@pytest.fixture(scope="session")
def w1():
    return parse_instance(FIXTURES / "w1.json")


@pytest.fixture(scope="session")
def w2():
    return parse_instance(FIXTURES / "w2.json")


@pytest.fixture(scope="session")
def w1_ctx(w1):
    return CalculusContext.build(w1.pair)


@pytest.fixture(scope="session")
def w2_ctx(w2):
    return CalculusContext.build(w2.pair)


@pytest.fixture(scope="session")
def zi_pair():
    """Rotation-like selfadjoint operator whose definitizer has nonreal zeros.

    J = flip, A = [[0,-1],[1,0]] has spectrum {i, -i}; p = z^2 + 1 annihilates
    it, q = z handles B = 0. Both nonreal zero pairs survive into the support.
    """
    J = np.array([[0, 1], [1, 0]], dtype=complex)
    A = np.array([[0, -1], [1, 0]], dtype=complex)
    space = KreinSpace(J)
    return DefinitizablePair.from_normal(
        space, A, p=RealPoly([1, 0, 1]), q=RealPoly([0, 1]), label="rotation"
    )


@pytest.fixture(scope="session")
def zi_ctx(zi_pair):
    return CalculusContext.build(zi_pair)


@pytest.fixture(scope="session")
def half_pair_ctx():
    """Instance where exactly one member of a nonreal zero pair is spectral.

    N = diag(i, 2) on J = diag(1, -1): sigma(N) = {i, 2} contains i but not
    its partner value -i, so both zero pairs fall outside the support.
    """
    J = np.diag([1.0, -1.0]).astype(complex)
    N = np.diag([1j, 2.0 + 0j])
    space = KreinSpace(J)
    pair = DefinitizablePair.from_normal(
        space, N, p=RealPoly([2, -1]) * RealPoly([1, 0, 1]), q=RealPoly([0, 1]),
        label="half-pair",
    )
    return CalculusContext.build(pair)


@pytest.fixture(scope="session")
def instances100():
    return [generate(i, n, prof) for i, n, prof in instance_matrix()]


@pytest.fixture(scope="session")
def contexts100(instances100):
    return [CalculusContext.build(inst.pair) for inst in instances100]

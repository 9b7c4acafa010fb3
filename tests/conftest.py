from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

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


def lattice_pair(seed, n, quadratics=()):
    """A Pontryagin-signature pair of dimension n: distinct points of the
    half-step lattice on [-4, 4]^2, conjugated by a J-unitary exp(K), with
    p = (z - a)^k prod ((z - c)^2 + d^2) and q alike vanishing at the
    J-negative slot (a, b); k = 2 without quadratic factors, 1 with them,
    the slot then sitting below and left of every other point."""
    rng = np.random.default_rng(seed)
    grid = np.arange(-8, 9) * 0.5
    spectrum = rng.choice((grid[:, None] + 1j * grid[None, :]).ravel(), n, replace=False)
    if quadratics:
        rest = spectrum[:-1]
        spectrum[-1] = complex(rest.real.min(), rest.imag.min()) - 0.5 - 0.5j
    signs = np.ones(n)
    signs[-1] = -1.0
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    skew = (M - M.conj().T) / 2.0
    U = scipy.linalg.expm(signs[:, None] * skew * (0.4 / max(1.0, np.linalg.norm(skew, 2))))
    Uinv = np.linalg.inv(U)
    polys = []
    for root in (spectrum[-1].real, spectrum[-1].imag):
        poly = RealPoly([-root, 1.0])
        if not quadratics:
            poly = poly * poly
        for c, d in quadratics:
            poly = poly * RealPoly([c * c + d * d, -2.0 * c, 1.0])
        polys.append(poly)
    A = U @ np.diag(spectrum.real) @ Uinv
    B = U @ np.diag(spectrum.imag) @ Uinv
    pair = DefinitizablePair(KreinSpace(np.diag(signs)), A, B, *polys)
    pair.validate()
    return pair, spectrum


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

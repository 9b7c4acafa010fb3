import importlib.util
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from kreincalc import (
    CalculusContext,
    DefinitizablePair,
    KreinSpace,
    RealPoly,
    function_from_dict,
    generate,
    parse_instance,
)

FIXTURES = Path(__file__).parent / "fixtures"
BENCH = FIXTURES.parents[1] / "bench"


def load_recipe():
    """The benchmark's instance recipe, loaded by path from ``bench/``."""
    spec = importlib.util.spec_from_file_location("recipe", BENCH / "recipe.py")
    recipe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(recipe)
    return recipe


PROFILES = ("diagonal", "jordan", "pontryagin")


def assert_same_set(got, expected, atol):
    """Every point of each list lies within ``atol`` of the other list."""
    dist = np.abs(np.asarray(got)[:, None] - np.asarray(expected)[None, :])
    assert dist.min(axis=1).max() <= atol and dist.min(axis=0).max() <= atol


def delta(ctx, at, shape, coeffs):
    """The function equal to the jet ``(shape, coeffs)`` at one critical
    point ``at`` or zero pair ``at = (z, w)``, zero elsewhere: a ``delta``
    function file, read by ``function_from_dict``."""
    def xy(v):
        return [complex(v).real, complex(v).imag]

    point = [xy(v) for v in at] if isinstance(at, tuple) else xy(at)
    entries = [[k, l, c.real, c.imag] for (k, l), c in zip(shape.indices, map(complex, coeffs))]
    jet = {"m": shape.m, "n": shape.n, "kind": shape.kind, "entries": entries}
    return function_from_dict(ctx, {"kind": "delta", "at": point, "jet": jet})


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
    U = j_unitary(np.diag(signs), rng, 0.4)
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


def j_unitary(J, rng, strength):
    """exp(strength J^-1 S / max(1, ||S||_2)), S the skew-Hermitian part of
    a complex Gaussian matrix drawn from ``rng``: a J-unitary, U^H J U = J."""
    n = len(J)
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    skew = (M - M.conj().T) / 2.0
    return scipy.linalg.expm(
        np.linalg.solve(J, skew) * (strength / max(1.0, np.linalg.norm(skew, 2)))
    )


def jordan_pair(k, strength, seed):
    """A nilpotent k-cell under the flip Gram, direct-summed with J-positive
    slots at 1.5 + 1i and 2.5 + 2i and conjugated by ``j_unitary`` at the
    given strength, with p = z^k and q = z. The critical point 0 lies in
    sigma(N) with algebraic multiplicity k; eigvals(N) scatters there by
    about eps^(1/k)."""
    n = k + 2
    J = np.zeros((n, n))
    J[:k, :k] = np.eye(k)[::-1]
    J[k:, k:] = np.eye(2)
    A = np.zeros((n, n))
    A[:k, :k] = np.eye(k, k=1)
    A[k:, k:] = np.diag([1.5, 2.5])
    B = np.diag([0.0] * k + [1.0, 2.0])
    U = j_unitary(J, np.random.default_rng(seed), strength)
    Uinv = np.linalg.inv(U)
    pair = DefinitizablePair(
        KreinSpace(J), U @ A @ Uinv, U @ B @ Uinv, RealPoly([0.0] * k + [1.0]), RealPoly([0, 1])
    )
    pair.validate()
    return pair


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

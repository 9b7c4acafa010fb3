"""Seeded instance dicts of any size for the benchmark.

``kreincalc.generate`` rejects n > 12, so the benchmark builds its larger
inputs itself, following the same recipe as its Pontryagin profile: lattice
spectra, a J-unitary conjugation of a diagonal pair, and even definitizing
polynomials. The dicts go to ``kreincalc.parse_instance`` and nowhere else;
nothing here imports from the library, so its private helpers stay free to
change.

Optional positive quadratic factors ``(z - c)^2 + d^2`` with ``d > 0`` keep
the polynomials definitizing (they are positive on the real spectrum) and add
nonreal zeros, which give the zero pairs the interpolation layer works on.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
from numpy.polynomial import polynomial as npoly

STEP = 0.5
LATTICE = np.arange(-8, 9) * STEP  # spectra live on [-4, 4] in steps of 0.5
GRID = (LATTICE[:, None] + 1j * LATTICE[None, :]).ravel()


def matrix_json(M) -> list:
    """Rows of [re, im] pairs, the instance-file matrix format."""
    M = np.asarray(M, dtype=complex)
    return np.stack([M.real, M.imag], axis=-1).tolist()


def krein_unitary(rng, signs, strength=0.4) -> np.ndarray:
    """exp(K) with J K skew-Hermitian for J = diag(signs): J-unitary."""
    n = len(signs)
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    skew = (M - M.conj().T) / 2.0
    K = signs[:, None] * skew * (strength / max(1.0, np.linalg.norm(skew, 2)))
    return scipy.linalg.expm(K)


def definitizing(root, order, quadratics) -> list:
    """(z - root)^order * prod ((z - c)^2 + d^2)."""
    coeffs = npoly.polypow([-root, 1.0], order)
    for c, d in quadratics:
        coeffs = npoly.polymul(coeffs, [c * c + d * d, -2.0 * c, 1.0])
    return [float(c) for c in coeffs]


def _polynomial(rng, root, quadratics) -> list:
    """Definitizing polynomial vanishing at the J-negative slot's ``root``.

    Without quadratic factors the zero is double, (z - root)^2 >= 0, as in
    the library's Pontryagin profile. With them the zero is simple and the
    J-negative slot sits below every other value, so (z - root) * prod(...) is
    still >= 0 on every J-positive slot: a double zero times a quadratic hits
    the double-root misclassification of RealPoly.zeros in about one context
    in six, and then every apply on that context is wrong. Quadratic centres
    sit between lattice points, so the nonreal zeros stay apart from the
    spectrum and from each other.
    """
    centres = rng.choice(LATTICE[:-1] + STEP / 2, size=quadratics, replace=False)
    widths = rng.choice([0.5, 0.75, 1.0], size=quadratics)
    return definitizing(root, 1 if quadratics else 2, list(zip(centres, widths)))


def instance(seed: int, n: int, quadratics: int = 0):
    """An n x n instance of signature (n-1, 1): (instance-file dict, spectrum).

    Each of p, q carries ``quadratics`` positive quadratic factors. The
    spectrum is the exact eigenvalue list the construction fixes.
    """
    if not 2 <= n <= GRID.size:
        raise ValueError(f"need 2 <= n <= {GRID.size}")
    rng = np.random.default_rng(seed)
    signs = np.ones(n)
    signs[-1] = -1.0
    # distinct eigenvalues, so r = n - 1 and the cluster count is n
    spectrum = rng.choice(GRID, size=n, replace=False)
    if quadratics:  # below and left of every J-positive slot
        rest = spectrum[:-1]
        spectrum[-1] = complex(rest.real.min(), rest.imag.min()) - STEP * (1 + 1j)
    a, b = spectrum.real, spectrum.imag
    p = _polynomial(rng, a[-1], quadratics)
    q = _polynomial(rng, b[-1], quadratics)
    U = krein_unitary(rng, signs)
    Uinv = np.linalg.inv(U)
    data = {
        "label": f"bench-n{n}-quad{quadratics}-seed{seed}",
        "J": matrix_json(np.diag(signs)),
        "A": matrix_json(U @ np.diag(a) @ Uinv),
        "B": matrix_json(U @ np.diag(b) @ Uinv),
        "p": p,
        "q": q,
    }
    return data, spectrum

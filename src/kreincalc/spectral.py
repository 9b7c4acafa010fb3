"""Spectral measure of a normal operator on the coordinate Hilbert space.

A unitary Schur form is clustered into eigenvalues with orthogonal
eigenprojections (a finite resolution of the identity), over which bounded
functions integrate as finite sums. The measure is kept factored: the Schur
basis ``Q`` and a cluster label per column, so an integral is one weighted
product ``(Q diag(h)) Q^H`` and no projection is stored. The augmented
integral additionally weights critical atoms by the two contraction Grams.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .cluster import cluster_points, match_points
from .errors import DomainMismatchError, NotNormalError
from .tol import DEFAULT_TOL, Tolerances, fro


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Eigenvalues of a normal matrix with their orthogonal projections.

    ``Q`` is a unitary basis of eigenvectors and column j lies in the
    eigenspace of ``centers[labels[j]]``; the projection onto cluster i is
    ``Q_i Q_i^H`` over the columns labelled i.
    """

    dim: int
    centers: tuple
    Q: np.ndarray
    labels: np.ndarray
    warnings: tuple = field(default=(), compare=False)

    @property
    def eigenvalues(self):
        return self.centers

    @property
    def points(self):
        """``(eigenvalue, projection)`` pairs, built densely on each access."""
        return tuple(
            (ev, self._projection(i)) for i, ev in enumerate(self.centers)
        )

    def _projection(self, i):
        V = self.Q[:, self.labels == i]
        return V @ V.conj().T

    def projection(self, value, radius=0.0):
        """Projection at the eigenvalue matching ``value`` (zero if none)."""
        idx = match_points([value], self.centers, radius)[0]
        if idx is None:
            return np.zeros((self.dim, self.dim), dtype=complex)
        return self._projection(idx)

    def resolution_residual(self):
        """How far the projections are from a resolution of the identity."""
        points = self.points
        total = sum((P for _, P in points), np.zeros((self.dim, self.dim), complex))
        resid = fro(total - np.eye(self.dim))
        for i, (_, P) in enumerate(points):
            resid = max(resid, fro(P @ P - P), fro(P - P.conj().T))
            for j in range(i + 1, len(points)):
                resid = max(resid, fro(P @ points[j][1]))
        return resid


def _read_only(arr):
    arr.setflags(write=False)
    return arr


def diagonalize(M, tol: Tolerances = DEFAULT_TOL) -> SpectralData:
    """Cluster the unitary Schur form of a normal matrix into spectral data.

    The strictly upper Schur block is zeroed when small (certifying
    normality numerically) and eigenvalues within the cluster radius are
    merged; clusters closer than three radii are flagged as ambiguous.
    """
    M = np.asarray(M, dtype=complex)
    r = M.shape[0]
    if r == 0:
        return SpectralData(
            0, (), _read_only(np.zeros((0, 0), complex)), _read_only(np.zeros(0, int))
        )
    scale = max(fro(M), 1.0)
    comm = fro(M @ M.conj().T - M.conj().T @ M)
    if comm > tol.rel * scale**2:
        raise NotNormalError(
            f"matrix is not normal: self-commutator {comm:.2e} > {tol.rel * scale**2:.2e}"
        )
    Tm, Q = scipy.linalg.schur(M, output="complex")
    upper = fro(np.triu(Tm, 1))
    if upper > tol.rel * scale:
        raise NotNormalError(
            f"Schur form is not numerically diagonal: off-norm {upper:.2e}"
        )
    evals = np.diag(Tm)
    radius = tol.cluster_radius(np.max(np.abs(evals)))
    centers, labels = cluster_points(evals, radius)
    gaps = np.abs(centers[:, None] - centers[None, :])
    centers = tuple(centers.tolist())
    warnings = tuple(
        f"clusters {centers[i]:.6g} and {centers[j]:.6g} are only {gaps[i, j]:.2e} apart"
        for i, j in zip(*np.nonzero(np.triu(gaps < 3 * radius, 1)))
    )
    return SpectralData(r, centers, _read_only(Q), _read_only(labels), warnings)


def snap_eigenvalues(data: SpectralData, targets, radius) -> SpectralData:
    """Replace eigenvalues lying within ``radius`` of a target by the target.

    Coincidence of spectrum with critical points is structural, so matched
    clusters are pinned to the exact critical value.
    """
    centers = tuple(
        ev if idx is None else complex(targets[idx])
        for ev, idx in zip(data.centers, match_points(data.centers, targets, radius))
    )
    return SpectralData(data.dim, centers, data.Q, data.labels, data.warnings)


def spectral_integral(data: SpectralData, h) -> np.ndarray:
    """Sum of h(eigenvalue) times eigenprojection.

    ``h`` may be a callable or a mapping keyed by the exact eigenvalues; a
    missing value raises. Computed as ``(Q diag(h[labels])) Q^H``.
    """
    weights = np.empty(len(data.centers), dtype=complex)
    for i, ev in enumerate(data.centers):
        if callable(h):
            weights[i] = complex(h(ev))
        else:
            if ev not in h:
                raise DomainMismatchError(f"integrand has no value at {ev}")
            weights[i] = complex(h[ev])
    return (data.Q * weights[data.labels]) @ data.Q.conj().T


def augmented_integral(
    data: SpectralData, values, pair_values, rr1, rr2
) -> np.ndarray:
    """Spectral integral with contraction-weighted critical atoms.

    ``values`` maps noncritical eigenvalues to scalars; ``pair_values`` maps
    critical eigenvalues to pairs (g1, g2) weighting R1 R1* and R2 R2* on the
    corresponding atom. Every eigenvalue must appear in exactly one mapping.
    The critical atoms enter as ``(rr1 Q_c diag(g1) + rr2 Q_c diag(g2)) Q_c^H``
    over the critical columns ``Q_c`` only.
    """
    k = len(data.centers)
    w = np.zeros(k, dtype=complex)
    g1 = np.zeros(k, dtype=complex)
    g2 = np.zeros(k, dtype=complex)
    crit = np.zeros(k, dtype=bool)
    for i, ev in enumerate(data.centers):
        if ev in pair_values:
            g1[i], g2[i] = pair_values[ev]
            crit[i] = True
        elif ev in values:
            w[i] = values[ev]
        else:
            raise DomainMismatchError(f"integrand has no value at {ev}")
    Q, labels = data.Q, data.labels
    left = Q * w[labels]
    cols = crit[labels]
    if cols.any():
        Qc, lc = Q[:, cols], labels[cols]
        left[:, cols] = rr1 @ (Qc * g1[lc]) + rr2 @ (Qc * g2[lc])
    return left @ Q.conj().T

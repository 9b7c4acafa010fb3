"""Spectral measure of a normal operator on the coordinate Hilbert space.

A unitary eigenbasis is clustered into eigenvalues with orthogonal
eigenprojections (a finite resolution of the identity), over which bounded
functions integrate as finite sums. The measure is kept factored: the
eigenbasis ``Q`` and a cluster label per column, so an integral is one
weighted product ``(Q diag(h)) Q^H`` and no projection is stored.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import zgees, zheevd

from .cluster import cluster_points, match_points
from .errors import DomainMismatchError, NotNormalError
from .tol import DEFAULT_TOL, Tolerances, fro, fro_each


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

    def projections(self) -> np.ndarray:
        """Every cluster's projection as one ``(k, dim, dim)`` stack, entry i
        that of ``centers[i]``: ``Q`` with the other clusters' columns
        zeroed, times ``Q^H``."""
        own = self.labels == np.arange(len(self.centers))[:, None]
        return (self.Q * own[:, None, :]) @ self.Q.conj().T

    def resolution_residual(self):
        """How far the projections are from a resolution of the identity."""
        P = self.projections()
        resid = fro(P.sum(axis=0) - np.eye(self.dim))
        i, j = np.triu_indices(len(P), 1)
        for excess in (P @ P - P, P - P.conj().transpose(0, 2, 1), P[i] @ P[j]):
            resid = max(resid, float(fro_each(excess).max(initial=0.0)))
        return resid


_EPS = np.finfo(float).eps


def _read_only(arr):
    arr.setflags(write=False)
    return arr


@functools.cache
def _schur_lwork(k: int) -> int:
    # LAPACK's optimal workspace for zgees depends on the order only
    return int(zgees(lambda x: None, np.zeros((k, k), complex), lwork=-1)[-2][0].real)


def _schur_vectors(B) -> np.ndarray:
    """Unitary ``Z`` with ``Z^H B Z`` upper triangular (complex Schur form).

    LAPACK ``zgees`` called directly: the ``scipy.linalg.schur`` wrapper's
    validation and workspace query cost more than the factorization of a
    small ``B``.
    """
    _, _, _, Z, _, info = zgees(
        lambda x: None, B, lwork=_schur_lwork(B.shape[0]), overwrite_a=True
    )
    if info:
        raise np.linalg.LinAlgError(f"Schur form not found (zgees info {info})")
    return Z


def diagonalize(M, tol: Tolerances = DEFAULT_TOL) -> SpectralData:
    """Cluster a unitary eigenbasis of a normal matrix into spectral data.

    The basis comes from the Hermitian real part ``H = (M + M^H)/2``, which
    commutes with ``M`` up to the self-commutator: ``eigh(H)`` splits the
    space into groups of eigenvectors whose real parts lie within ``g`` of a
    neighbour, and a complex Schur form of ``M`` compressed onto each group
    of two or more splits it further. ``M`` is normal only up to its
    self-commutator ``c = ||M M^H - M^H M||_F``, which may be as large as
    ``rel ||M||_F**2``, and ``eigh`` adds a backward error of a few
    ``eps ||M||_F``; between groups whose real parts differ by ``d``, these
    put about ``max(eps ||M||_F, c / ||M||_F) / d`` into the off-diagonal of
    ``Q^H M Q`` (relative to ``||M||_F``). So ``g = 100 max(eps ||M||_F,
    c / ||M||_F) / rel`` keeps the split a hundredfold inside the
    certificate: the off-diagonal of ``Q^H M Q`` must stay within
    ``rel ||M||_F``, or ``NotNormalError`` is raised, as for a
    self-commutator above ``rel ||M||_F**2``. When every real part lies in
    one group this is one full Schur form.

    Eigenvalues (read off the diagonal of ``Q^H M Q``) within the cluster
    radius are merged; clusters closer than three radii are flagged as
    ambiguous. Non-finite entries raise ``ValueError``.
    """
    M = np.asarray(M, dtype=complex)
    if not np.isfinite(M).all():
        raise ValueError("array must not contain infs or NaNs")
    r = M.shape[0]
    if r == 0:
        return SpectralData(
            0, (), _read_only(np.zeros((0, 0), complex)), _read_only(np.zeros(0, int))
        )
    scale = max(fro(M), 1.0)
    Mh = M.conj().T
    comm = fro(M @ Mh - Mh @ M)
    if comm > tol.rel * scale**2:
        raise NotNormalError(
            f"matrix is not normal: self-commutator {comm:.2e} > {tol.rel * scale**2:.2e}"
        )
    real, Q, info = zheevd((M + Mh) / 2.0, overwrite_a=True)
    if info:
        raise np.linalg.LinAlgError(f"eigh did not converge (zheevd info {info})")
    # a group ends where the next real part is more than g away; written
    # without the division so that rel = 0 makes one group
    floor = max(_EPS * scale, comm / scale)
    ends = (np.nonzero(tol.rel * (real[1:] - real[:-1]) > 100 * floor)[0] + 1).tolist()
    for lo, hi in zip([0, *ends], [*ends, r]):
        if hi - lo >= 2:
            U = Q[:, lo:hi]
            Q[:, lo:hi] = U @ _schur_vectors(U.conj().T @ M @ U)
    D = Q.conj().T @ M @ Q
    evals = D.diagonal().copy()
    D.flat[:: r + 1] = 0.0
    off = fro(D)
    if off > tol.rel * scale:
        raise NotNormalError(
            f"eigenbasis does not diagonalize: off-diagonal norm {off:.2e} "
            f"> {tol.rel * scale:.2e}"
        )
    radius = tol.cluster_radius(np.max(np.abs(evals)))
    centers, labels = cluster_points(evals, radius)
    gaps = np.abs(centers[:, None] - centers[None, :])
    centers = tuple(centers.tolist())
    warnings = tuple(
        f"clusters {centers[i]:.6g} and {centers[j]:.6g} are only {gaps[i, j]:.2e} apart"
        for i, j in zip(*np.nonzero(np.triu(gaps < 3 * radius, 1)))
    )
    return SpectralData(r, centers, _read_only(Q), _read_only(labels), warnings)


def snap_eigenvalues(data: SpectralData, targets, radius):
    """Replace eigenvalues lying within ``radius`` of a target by the target.

    Coincidence of spectrum with critical points is structural, so matched
    clusters are pinned to the exact critical value. Returns the snapped
    data and, per cluster, the index of the target it is pinned to, or None.
    """
    pinned = match_points(data.centers, targets, radius)
    centers = tuple(
        ev if idx is None else complex(targets[idx]) for ev, idx in zip(data.centers, pinned)
    )
    return SpectralData(data.dim, centers, data.Q, data.labels, data.warnings), tuple(pinned)


def _weights(h, shape) -> np.ndarray:
    h = np.asarray(h, dtype=complex)
    if h.shape != shape:
        raise DomainMismatchError(f"expected weights of shape {shape}, got {h.shape}")
    return h


def spectral_integral(data: SpectralData, h) -> np.ndarray:
    """Sum of ``h[i]`` times the eigenprojection of ``centers[i]``.

    ``h`` holds one value per eigenvalue; any other length raises. Computed
    as ``(Q diag(h[labels])) Q^H``.
    """
    h = _weights(h, (len(data.centers),))
    return (data.Q * h[data.labels]) @ data.Q.conj().T


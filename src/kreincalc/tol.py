"""Tolerance policy shared by all numerical decisions."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace, fields

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class Tolerances:
    """Collection of tolerance knobs with documented defaults.

    ``abs``      absolute floor (Gram invertibility, jet inversion, Hermitianity)
    ``rel``      relative slack of identities that hold to rounding: normality
                 ||NN*-N*N||_F <= rel * ||N||_F**2, the off-diagonal of
                 Q^H M Q in the eigenbasis of a normal M (its eigh groups
                 split at real-part gaps above 100 max(eps ||M||_F, c /
                 ||M||_F) / rel, c the self-commutator), and
                 the remainder's vanishing-projection test
    ``cluster``  base factor for eigenvalue clustering and point matching;
                 a calculus context's one radius is cluster * (1 + the largest
                 magnitude among the eigenvalues of Th(N) and the critical
                 values). Zeros of polynomials and their conjugate partners
                 are decided without it, by the rank decisions of
                 ``RealPoly.zeros`` and exact comparison
    ``rank``     relative eigenvalue cut for rank-revealing factorizations
    ``spec``     relative slack of checks on computed factors: PSD,
                 commutant membership, eigenprojection identities
    ``cond``     largest acceptable condition number for interpolation solves
    """

    abs: float = 1e-12
    rel: float = 1e-9
    cluster: float = 1e-7
    rank: float = 1e-10
    spec: float = 1e-8
    cond: float = 1e12

    def scaled(self, factor: float) -> "Tolerances":
        """All thresholds multiplied by ``factor`` (cond divided); a factor
        that is not finite and positive raises :class:`ValidationError`."""
        if not (np.isfinite(factor) and factor > 0):
            raise ValidationError(f"tolerance scale must be finite and positive, got {factor}")
        kw = {f.name: getattr(self, f.name) * factor for f in fields(self) if f.name != "cond"}
        return replace(self, cond=self.cond / factor, **kw)

    def with_overrides(self, **kw) -> "Tolerances":
        return replace(self, **kw)

    def cluster_radius(self, magnitude: float) -> float:
        return self.cluster * (1.0 + float(magnitude))


DEFAULT_TOL = Tolerances()


def fro(M) -> float:
    """Frobenius norm, the measure residual checks compare to a threshold.

    The arithmetic of ``np.linalg.norm(M, "fro")`` (the squares of the real
    and imaginary parts summed by ``dot``, then the square root) without its
    dispatch, which costs more than the sum on the small matrices here.
    """
    x = np.asarray(M)
    if x.dtype.kind not in "fc":
        x = x.astype(float)
    x = x.ravel(order="K")
    if x.dtype.kind == "c":
        re, im = x.real, x.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return math.sqrt(x.dot(x))


def fro_each(M) -> np.ndarray:
    """Frobenius norm of every matrix in a stack of shape ``(..., m, n)``."""
    x = np.ascontiguousarray(M)
    if x.dtype.kind == "c":
        x = x.view(x.real.dtype)  # real and imaginary parts side by side
    x = x.reshape(x.shape[:-2] + (x.shape[-2] * x.shape[-1],))
    return np.sqrt(np.add.reduce(x * x, axis=-1))


def norm2(M) -> float:
    """Spectral norm, 0 for an empty matrix."""
    M = np.asarray(M)
    return float(np.linalg.norm(M, 2)) if M.size else 0.0

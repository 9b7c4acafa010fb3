"""Tolerance policy shared by all numerical decisions."""

from __future__ import annotations

from dataclasses import dataclass, replace, fields

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class Tolerances:
    """Collection of tolerance knobs with documented defaults.

    ``abs``      absolute floor (Gram invertibility, jet inversion, Hermitianity)
    ``rel``      relative slack of identities that hold to rounding: normality
                 ||NN*-N*N||_F <= rel * ||N||_F**2, the Schur block of normal
                 operators, and the remainder's vanishing-projection test
    ``cluster``  base factor for zero/eigenvalue clustering; the effective
                 radius is cluster * (1 + largest magnitude in play)
    ``rank``     relative eigenvalue cut for rank-revealing factorizations
    ``spec``     relative slack of checks on computed factors: PSD,
                 commutant membership, eigenprojection identities
    ``cond``     largest acceptable condition number for interpolation solves
    ``boundary_factor``  region boundaries must clear critical spectral points
                 by boundary_factor * cluster radius
    """

    abs: float = 1e-12
    rel: float = 1e-9
    cluster: float = 1e-7
    rank: float = 1e-10
    spec: float = 1e-8
    cond: float = 1e12
    boundary_factor: float = 10.0

    def scaled(self, factor: float) -> "Tolerances":
        """All thresholds multiplied by ``factor`` (cond divided); a factor
        that is not finite and positive raises :class:`ValidationError`."""
        if not (np.isfinite(factor) and factor > 0):
            raise ValidationError(f"tolerance scale must be finite and positive, got {factor}")
        kw = {}
        for f in fields(self):
            if f.name == "cond":
                kw[f.name] = self.cond / factor
            elif f.name == "boundary_factor":
                kw[f.name] = self.boundary_factor
            else:
                kw[f.name] = getattr(self, f.name) * factor
        return replace(self, **kw)

    def with_overrides(self, **kw) -> "Tolerances":
        return replace(self, **kw)

    def cluster_radius(self, magnitude: float) -> float:
        return self.cluster * (1.0 + float(magnitude))

    def boundary_margin(self, magnitude: float) -> float:
        return self.boundary_factor * self.cluster_radius(magnitude)


DEFAULT_TOL = Tolerances()


def fro(M) -> float:
    """Frobenius norm, the measure residual checks compare to a threshold."""
    return float(np.linalg.norm(M, "fro"))

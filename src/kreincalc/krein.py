"""Finite-dimensional Krein space: indefinite inner product, adjoints,
normality, and definitizing polynomials."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .cluster import cluster_points
from .errors import NotNormalError, NotPsdError, SearchFailedError, ValidationError
from .bipoly import RealPoly
from .tol import DEFAULT_TOL, Tolerances, fro


class KreinSpace:
    """C^n with the indefinite inner product [x, y] = y^H J x.

    ``J`` must be Hermitian and invertible; ``tol`` governs every numerical
    decision made on this space.
    """

    __slots__ = ("n", "J", "Jinv", "tol")

    def __init__(self, J, tol: Tolerances = DEFAULT_TOL):
        J = np.asarray(J, dtype=complex)
        if J.ndim != 2 or J.shape[0] != J.shape[1]:
            raise ValidationError("Gram matrix must be square")
        herm_resid = fro(J - J.conj().T)
        if herm_resid > tol.abs * (1.0 + fro(J)):
            raise ValidationError(
                f"Gram matrix is not Hermitian (residual {herm_resid:.2e})"
            )
        J = (J + J.conj().T) / 2.0
        smin = np.linalg.svd(J, compute_uv=False)[-1]
        if smin <= tol.abs:
            raise ValidationError(
                f"Gram matrix is numerically singular (sigma_min {smin:.2e})"
            )
        self.n = J.shape[0]
        self.J = J
        self.Jinv = np.linalg.inv(J)
        self.tol = tol

    def inner(self, x, y):
        """[x, y] = y^H J x."""
        return complex(np.vdot(y, self.J @ x))

    def adjoint(self, C) -> np.ndarray:
        """Krein adjoint C* = J^{-1} C^H J, so [Cx, y] = [x, C*y]."""
        C = np.asarray(C, dtype=complex)
        return np.linalg.solve(self.J, C.conj().T @ self.J)

    def is_selfadjoint(self, C, scale: float = None) -> bool:
        C = np.asarray(C, dtype=complex)
        s = scale if scale is not None else 1.0 + fro(C)
        return fro(C - self.adjoint(C)) <= self.tol.rel * s

    def normality_defect(self, N) -> float:
        N = np.asarray(N, dtype=complex)
        Ns = self.adjoint(N)
        return fro(N @ Ns - Ns @ N)

    def check_normal(self, N):
        """Raise unless N commutes with its Krein adjoint at tolerance."""
        N = np.asarray(N, dtype=complex)
        defect = self.normality_defect(N)
        bound = self.tol.rel * max(fro(N) ** 2, self.tol.abs)
        if defect > bound:
            raise NotNormalError(
                f"operator is not normal: ||NN* - N*N|| = {defect:.2e} > {bound:.2e}"
            )

    def signature(self):
        """(positive, negative) eigenvalue counts of J."""
        ev = np.linalg.eigvalsh(self.J)
        return int(np.sum(ev > 0)), int(np.sum(ev < 0))


def split_normal(space: KreinSpace, N):
    """Real and imaginary parts A = (N + N*)/2, B = (N - N*)/(2i).

    Requires N normal; the parts are selfadjoint and commute.
    """
    space.check_normal(N)
    N = np.asarray(N, dtype=complex)
    Ns = space.adjoint(N)
    A = (N + Ns) / 2.0
    B = (N - Ns) / 2.0j
    return A, B


@dataclass(frozen=True)
class PositivityReport:
    accepted: bool
    min_eigenvalue: float
    threshold: float
    gram_norm: float


def poly_eval_scale(space: KreinSpace, A, p: RealPoly) -> float:
    """Worst-case magnitude of J p(A): the scale of its rounding noise."""
    nrm = float(np.linalg.norm(np.asarray(A, dtype=complex), 2))
    total = sum(abs(c) * nrm**k for k, c in enumerate(p.coeffs))
    return float(np.linalg.norm(space.J, 2)) * total


def verify_definitizing(
    space: KreinSpace, A, p: RealPoly, scale_floor: float = None
) -> PositivityReport:
    """Check [p(A)x, x] >= 0 by the smallest eigenvalue of sym(J p(A)).

    J p(A) is Hermitian in exact arithmetic for selfadjoint A; rounding breaks
    the symmetry, so the product is symmetrized before the eigenvalue test.
    Negativity is tolerated relative to the evaluation scale of J p(A), so a
    product that is mathematically zero but computed as noise still passes.
    """
    if scale_floor is None:
        scale_floor = poly_eval_scale(space, A, p)
    H = space.J @ p.of_matrix(np.asarray(A, dtype=complex))
    H = (H + H.conj().T) / 2.0
    norm = float(np.linalg.norm(H, 2)) if H.size else 0.0
    threshold = space.tol.spec * max(norm, scale_floor, space.tol.abs)
    min_eig = float(np.linalg.eigvalsh(H)[0]) if H.size else 0.0
    return PositivityReport(min_eig >= -threshold, min_eig, threshold, norm)


def search_definitizing(space: KreinSpace, A, max_degree: int = 6) -> RealPoly:
    """Lowest-degree definitizing polynomial from a bounded candidate family.

    Candidates are +-prod (z - c_i)^{e_i} over the real parts of A's clustered
    eigenvalues, total degree 0..max_degree, tried in degree order. The family
    is deliberately small; exhaustion asks the caller to supply a polynomial.
    """
    A = np.asarray(A, dtype=complex)
    ev = np.linalg.eigvals(A)
    radius = space.tol.cluster_radius(np.max(np.abs(ev)) if ev.size else 0.0)
    centers = cluster_points(ev, radius)[0].real.tolist()
    if not any(abs(c) <= radius for c in centers):
        centers.append(0.0)
    centers.sort(key=lambda c: (abs(c), c))
    for degree in range(max_degree + 1):
        for combo in itertools.combinations_with_replacement(centers, degree):
            base = RealPoly([1.0])
            for c in combo:
                base = base * RealPoly([-c, 1.0])
            for sign in (1.0, -1.0):
                cand = sign * base
                if verify_definitizing(space, A, cand).accepted:
                    return cand
    raise SearchFailedError(
        f"no definitizing polynomial of degree <= {max_degree} found; "
        "supply one explicitly in the instance"
    )


@dataclass(frozen=True)
class DefinitizablePair:
    """Commuting selfadjoint parts of a normal operator with their
    definitizing polynomials."""

    space: KreinSpace
    A: np.ndarray
    B: np.ndarray
    p: RealPoly
    q: RealPoly
    label: str = field(default="", compare=False)

    @property
    def N(self) -> np.ndarray:
        return self.A + 1j * self.B

    @classmethod
    def from_normal(
        cls,
        space: KreinSpace,
        N,
        p: RealPoly = None,
        q: RealPoly = None,
        max_degree: int = 6,
        label: str = "",
    ) -> "DefinitizablePair":
        A, B = split_normal(space, N)
        if p is None:
            p = search_definitizing(space, A, max_degree)
        if q is None:
            q = search_definitizing(space, B, max_degree)
        pair = cls(space, A, B, p, q, label)
        pair.validate()
        return pair

    def validate(self):
        """Raise unless all structural invariants hold at tolerance."""
        sp, A, B = self.space, self.A, self.B
        scale = max(fro(A), fro(B), 1.0)
        if not sp.is_selfadjoint(A):
            raise ValidationError("real part is not Krein-selfadjoint")
        if not sp.is_selfadjoint(B):
            raise ValidationError("imaginary part is not Krein-selfadjoint")
        comm = fro(A @ B - B @ A)
        if comm > sp.tol.rel * scale**2:
            raise NotNormalError(
                f"parts do not commute: ||AB - BA|| = {comm:.2e}"
            )
        for M, poly, name in ((A, self.p, "p"), (B, self.q, "q")):
            rep = verify_definitizing(sp, M, poly)
            if not rep.accepted:
                raise NotPsdError(
                    f"polynomial {name} is not definitizing: smallest eigenvalue "
                    f"{rep.min_eigenvalue:.2e} < -{rep.threshold:.2e}"
                )

    def gram_parts(self):
        """The PSD matrices J p(A), J q(B) and their sum, symmetrized."""
        Gp = self.space.J @ self.p.of_matrix(self.A)
        Gq = self.space.J @ self.q.of_matrix(self.B)
        Gp = (Gp + Gp.conj().T) / 2.0
        Gq = (Gq + Gq.conj().T) / 2.0
        return Gp, Gq, Gp + Gq

"""Finite-dimensional Krein space: indefinite inner product, adjoints,
normality, and definitizing polynomials."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .cluster import cluster_points
from .errors import NotNormalError, NotPsdError, SearchFailedError, ValidationError
from .bipoly import RealPoly
from .tol import DEFAULT_TOL, Tolerances, fro, norm2


class KreinSpace:
    """C^n with the indefinite inner product [x, y] = y^H J x.

    ``J`` must be Hermitian and invertible; ``tol`` governs every numerical
    decision made on this space. ``norm`` is the spectral norm of ``J`` and
    ``inv_norm`` that of ``J^{-1}``.

    A J whose every row holds one nonzero entry, and that entry exactly +1
    or -1, is a signed permutation: ``J[i, perm[i]] = signs[i]``. Hermitian,
    it is an involution, J = J^H = J^{-1}, and unitary, so ``Jinv`` is J,
    both norms are 1 and no matrix is decomposed. :meth:`lmul`, :meth:`rmul`
    and :meth:`lsolve` then permute rows or columns and flip signs, which
    gives the dense products bit for bit. For any other J, ``perm`` and
    ``signs`` are None and those are dense products with J and its inverse.
    """

    __slots__ = ("n", "J", "Jinv", "norm", "inv_norm", "tol", "perm", "signs")

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
        self.perm, self.signs = _signed_permutation(J)
        if self.perm is None:
            sv = np.linalg.svd(J, compute_uv=False)
            smax, smin = sv[0], sv[-1]
        else:
            smax = smin = 1.0
        if smin <= tol.abs:
            raise ValidationError(
                f"Gram matrix is numerically singular (sigma_min {smin:.2e})"
            )
        self.n = J.shape[0]
        self.J = J
        self.Jinv = np.linalg.inv(J) if self.perm is None else J
        self.norm = float(smax)
        self.inv_norm = float(1.0 / smin)
        self.tol = tol

    def inner(self, x, y):
        """[x, y] = y^H J x."""
        return complex(np.vdot(y, self.J @ x))

    def lmul(self, M) -> np.ndarray:
        """J M for a matrix M."""
        if self.perm is None:
            return self.J @ M
        return self.signs[:, None] * M[self.perm]

    def rmul(self, M) -> np.ndarray:
        """M J for a matrix M. A signed-permutation J is symmetric in its
        pattern, ``signs[perm[k]] = signs[k]``, so column k of M J is
        column ``perm[k]`` of M times ``signs[k]``."""
        if self.perm is None:
            return M @ self.J
        return M[:, self.perm] * self.signs

    def lsolve(self, M) -> np.ndarray:
        """J^{-1} M for a matrix M."""
        if self.perm is None:
            return self.Jinv @ M
        return self.lmul(M)

    def adjoint(self, C) -> np.ndarray:
        """Krein adjoint C* = J^{-1} C^H J, so [Cx, y] = [x, C*y]."""
        C = np.asarray(C, dtype=complex)
        return self.lsolve(self.rmul(C.conj().T))

    def selfadjoint_norm(self, M) -> float:
        """||M||_2 of a J-selfadjoint M. When J is a signed permutation and
        J M is Hermitian bit for bit, as it is for the parts
        :func:`split_normal` makes, it is the largest |eigenvalue| of J M:
        J is unitary, so ||M||_2 = ||J M||_2. Otherwise :func:`norm2`."""
        if self.perm is not None:
            H = self.lmul(M)
            if np.array_equal(H, H.conj().T):
                ev = np.linalg.eigvalsh(H)
                return float(max(-ev[0], ev[-1]))
        return norm2(M)

    def is_selfadjoint(self, C) -> bool:
        C = np.asarray(C, dtype=complex)
        return fro(C - self.adjoint(C)) <= self.tol.rel * (1.0 + fro(C))

    def check_normal(self, N) -> tuple:
        """Raise unless N commutes with its Krein adjoint at tolerance;
        return that adjoint and the defect ||NN* - N*N||_F."""
        N = np.asarray(N, dtype=complex)
        Ns = self.adjoint(N)
        defect = fro(N @ Ns - Ns @ N)
        bound = self.tol.rel * max(fro(N) ** 2, self.tol.abs)
        if defect > bound:
            raise NotNormalError(
                f"operator is not normal: ||NN* - N*N|| = {defect:.2e} > {bound:.2e}"
            )
        return Ns, defect

    def signature(self):
        """(positive, negative) eigenvalue counts of J."""
        ev = np.linalg.eigvalsh(self.J)
        return int(np.sum(ev > 0)), int(np.sum(ev < 0))


def _signed_permutation(J) -> tuple:
    """``(perm, signs)`` with ``J[i, perm[i]] = signs[i]`` when every row of
    J has exactly one nonzero entry and that entry is exactly +1 or -1;
    ``(None, None)`` for any other J, and for an empty one."""
    nonzero = J != 0
    if not J.size or not (np.count_nonzero(nonzero, axis=1) == 1).all():
        return None, None
    perm = nonzero.argmax(axis=1)
    entries = J[np.arange(J.shape[0]), perm]
    if not ((np.abs(entries.real) == 1.0) & (entries.imag == 0.0)).all():
        return None, None
    return perm, entries.real


def split_normal(space: KreinSpace, N):
    """Real and imaginary parts A = (N + N*)/2, B = (N - N*)/(2i), and the
    normality defect ||NN* - N*N||_F of N that :meth:`KreinSpace.check_normal`
    measured.

    Requires N normal; the parts are selfadjoint and commute.
    """
    N = np.asarray(N, dtype=complex)
    Ns, defect = space.check_normal(N)
    A = (N + Ns) / 2.0
    B = (N - Ns) / 2.0j
    return A, B, defect


@dataclass(frozen=True)
class PositivityReport:
    accepted: bool
    min_eigenvalue: float
    threshold: float


def poly_eval_scale(space: KreinSpace, a_norm: float, p: RealPoly) -> float:
    """Worst-case magnitude of J p(A) for ``||A||_2 = a_norm``: the scale of
    its rounding noise."""
    total = sum(abs(c) * a_norm**k for k, c in enumerate(p.coeffs))
    return space.norm * total


def split_noise(space: KreinSpace, n_norm: float, part_norm: float, p: RealPoly) -> float:
    """Bound on the rounding noise in J p(X) for a part X of N = A + iB:
    the split off J^{-1} N^H J moves X by up to ``delta = n eps ||N||_F (1 +
    ||J|| ||J^{-1}||)``, and J p(X) to first order by ``||J|| sum_k k |c_k|
    m^(k-1) delta``, ``m = max(||X||_F, delta)``."""
    delta = space.n * np.finfo(float).eps * n_norm * (1.0 + space.norm * space.inv_norm)
    m = max(part_norm, delta)
    slope = sum(k * abs(c) * m ** (k - 1) for k, c in enumerate(p.coeffs) if k)
    return space.norm * slope * delta


def definitizing_gram(space: KreinSpace, value) -> tuple:
    """sym(J p(A)) for ``value = p(A)``, with its ``eigh`` eigendecomposition:
    ``(G, evals, vecs)``, eigenvalues ascending.

    J p(A) is Hermitian in exact arithmetic for selfadjoint A; rounding breaks
    the symmetry, so the product is symmetrized before it is decomposed.
    """
    G = space.lmul(value)
    G = (G + G.conj().T) / 2.0
    return (G, *np.linalg.eigh(G))


def verify_definitizing(
    space: KreinSpace, A, p: RealPoly, scale: float = None, evals=None,
    n_norm: float = None,
) -> PositivityReport:
    """Check [p(A)x, x] >= 0 by the smallest eigenvalue of sym(J p(A)).

    The eigenvalues come from :func:`definitizing_gram`, or are ``evals``
    when the caller has decomposed sym(J p(A)) already, as
    :attr:`DefinitizablePair.definitizing_grams` does; either way one
    ``eigh`` decides, so the bounded search and :meth:`~DefinitizablePair.validate`
    read the same number. Negativity is tolerated relative to ``scale``, the
    evaluation scale of J p(A), so a product that is mathematically zero but
    computed as noise still passes. ``scale`` must bound ||J p(A)||_2 from
    above, as :func:`poly_eval_scale` does by the triangle inequality (its
    default), so the norm of the product itself needs no decomposition. When
    ``A`` is a part of a normal N with ``||N||_F = n_norm``, the threshold is
    floored at :func:`split_noise`: a part that is zero in exact arithmetic
    keeps the split's noise.
    """
    A = np.asarray(A, dtype=complex)
    if scale is None:
        scale = poly_eval_scale(space, space.selfadjoint_norm(A), p)
    if evals is None:
        evals = definitizing_gram(space, p.of_matrix(A))[1]
    threshold = space.tol.spec * max(scale, space.tol.abs)
    if n_norm is not None:
        threshold = max(threshold, split_noise(space, n_norm, fro(A), p))
    min_eig = float(evals[0]) if evals.size else 0.0
    return PositivityReport(min_eig >= -threshold, min_eig, threshold)


# the largest total degree search_definitizing tries
_MAX_DEGREE = 6


def search_definitizing(space: KreinSpace, A, n_norm: float = None) -> RealPoly:
    """Lowest-degree definitizing polynomial from a bounded candidate family.

    Candidates are +-prod (z - c_i)^{e_i} over the real parts of A's clustered
    eigenvalues, total degree 0.._MAX_DEGREE, tried in degree order, each
    tested by :func:`verify_definitizing` with ``n_norm`` as
    :meth:`DefinitizablePair.validate` tests it. The family is deliberately
    small; exhaustion asks the caller to supply a polynomial.
    """
    A = np.asarray(A, dtype=complex)
    ev = np.linalg.eigvals(A)
    radius = space.tol.cluster_radius(np.max(np.abs(ev)) if ev.size else 0.0)
    centers = cluster_points(ev, radius)[0].real.tolist()
    if not any(abs(c) <= radius for c in centers):
        centers.append(0.0)
    centers.sort(key=lambda c: (abs(c), c))
    a_norm = space.selfadjoint_norm(A)
    for degree in range(_MAX_DEGREE + 1):
        for combo in itertools.combinations_with_replacement(centers, degree):
            base = RealPoly([1.0])
            for c in combo:
                base = base * RealPoly([-c, 1.0])
            for sign in (1.0, -1.0):
                cand = sign * base
                if verify_definitizing(
                    space, A, cand, poly_eval_scale(space, a_norm, cand), n_norm=n_norm
                ).accepted:
                    return cand
    raise SearchFailedError(
        f"no definitizing polynomial of degree <= {_MAX_DEGREE} found; "
        "supply one explicitly in the instance"
    )


@dataclass(frozen=True)
class DefinitizablePair:
    """Commuting selfadjoint parts of a normal operator with their
    definitizing polynomials. ``defect`` is the normality defect that
    :func:`split_normal` measured on the N that A and B were split from, or
    None for parts given directly; :meth:`validate` certifies [A, B] = 0
    from it."""

    space: KreinSpace
    A: np.ndarray
    B: np.ndarray
    p: RealPoly
    q: RealPoly
    label: str = field(default="", compare=False)
    defect: float = field(default=None, compare=False)

    @property
    def N(self) -> np.ndarray:
        return self.A + 1j * self.B

    @classmethod
    def from_normal(cls, space: KreinSpace, N, p: RealPoly = None, q: RealPoly = None,
                    label: str = "") -> "DefinitizablePair":
        """The pair of N's J-selfadjoint parts (:func:`split_normal`), by
        :meth:`from_parts`."""
        return cls.from_parts(space, N, *split_normal(space, N), p, q, label)

    @classmethod
    def from_parts(cls, space: KreinSpace, N, A, B, defect: float, p: RealPoly = None,
                   q: RealPoly = None, label: str = "") -> "DefinitizablePair":
        """The validated pair of the split parts ``A``, ``B`` of ``N``, whose
        normality defect the split measured as ``defect``; each polynomial
        that is None is searched for with ``n_norm = ||N||_F``."""
        n_norm = fro(N)
        if p is None:
            p = search_definitizing(space, A, n_norm=n_norm)
        if q is None:
            q = search_definitizing(space, B, n_norm=n_norm)
        pair = cls(space, A, B, p, q, label, defect)
        pair.validate()
        return pair

    @cached_property
    def eval_scales(self) -> tuple:
        """:func:`poly_eval_scale` of ``(A, p)`` and of ``(B, q)``, the norms
        by :meth:`KreinSpace.selfadjoint_norm`."""
        sp = self.space
        return (
            poly_eval_scale(sp, sp.selfadjoint_norm(self.A), self.p),
            poly_eval_scale(sp, sp.selfadjoint_norm(self.B), self.q),
        )

    @cached_property
    def poly_values(self) -> tuple:
        """p(A) and q(B), each evaluated once, read-only."""
        values = self.p.of_matrix(self.A), self.q.of_matrix(self.B)
        for value in values:
            value.setflags(write=False)
        return values

    @cached_property
    def definitizing_grams(self) -> tuple:
        """:func:`definitizing_gram` of p(A) and of q(B), each decomposed
        once: :meth:`validate` reads their smallest eigenvalues and
        :func:`~kreincalc.embed.build_bundle` factors them, then drops them
        (:meth:`drop_grams`)."""
        return tuple(definitizing_gram(self.space, value) for value in self.poly_values)

    def drop_grams(self):
        """Forget :attr:`definitizing_grams`; the next access decomposes anew."""
        self.__dict__.pop("definitizing_grams", None)

    def validate(self):
        """Raise unless all structural invariants hold at tolerance.

        The commutator of the parts is certified from the carried defect
        (:meth:`_commutator_certificate`) and measured only when the pair
        carries none or the certificate is not within the bound.
        """
        sp, A, B = self.space, self.A, self.B
        a, b = fro(A), fro(B)
        if not sp.is_selfadjoint(A):
            raise ValidationError("real part is not Krein-selfadjoint")
        if not sp.is_selfadjoint(B):
            raise ValidationError("imaginary part is not Krein-selfadjoint")
        bound = sp.tol.rel * max(a, b, 1.0) ** 2
        comm = None if self.defect is None else self._commutator_certificate(a, b)
        if comm is None or comm > bound:
            comm = fro(A @ B - B @ A)
        if comm > bound:
            raise NotNormalError(
                f"parts do not commute: ||AB - BA|| = {comm:.2e}"
            )
        n_norm = fro(self.N)
        for M, poly, name, s, (_, evals, _) in zip(
            (A, B), (self.p, self.q), "pq", self.eval_scales, self.definitizing_grams
        ):
            rep = verify_definitizing(sp, M, poly, s, evals, n_norm)
            if not rep.accepted:
                raise NotPsdError(
                    f"polynomial {name} is not definitizing: smallest eigenvalue "
                    f"{rep.min_eigenvalue:.2e} < -{rep.threshold:.2e}"
                )

    def _commutator_certificate(self, a: float, b: float) -> float:
        """An upper bound on ||[A, B]||_F from the carried normality defect,
        for parts of norms ``a = ||A||_F`` and ``b = ||B||_F``.

        With N* the adjoint the split computed, the parts it rounds,
        A' = (N + N*)/2 and B' = (N - N*)/(2i), satisfy [A', B'] = (N* N -
        N N*)/(2i) exactly, so ||[A', B']||_F = D/2 with D = ||N N* -
        N* N||_F. The defect d is D from products rounded entrywise by at
        most gamma_n |N| |N*|, summed by ``fro`` to relative error n^2 eps,
        so D <= d (1 + n^2 eps) + 2 gamma_n ||N||_F ||N*||_F, and both norms
        are at most a + b up to rounding. Each stored part is within eps of
        A' or B' in norm (one rounded sum; halving and dividing by 2i are
        exact), which moves the commutator by at most about 4 eps a b <= eps
        (a + b)^2. With gamma_n ~ n eps / 2 the rounding terms sum to less
        than (n + 2) eps (a + b)^2.
        """
        n, eps = self.space.n, np.finfo(float).eps
        return self.defect * (1.0 + n * n * eps) / 2.0 + (n + 2) * eps * (a + b) ** 2

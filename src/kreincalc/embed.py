"""Hilbert-space embeddings of a definitizable pair.

Realizes the coordinate spaces V, V1, V2 through rank-revealing factorizations
of the weighted Grams J p(A), J q(B) and their sum, the injections T, T1, T2
back into the Krein space, the contractions R1, R2 relating them, and the six
transfer maps between the commutants living on these spaces.

Coordinates carry the standard inner product (factor rows are eigen-scaled),
so Hilbert adjoints on V, V1, V2 are plain conjugate transposes, while * on
operators over the Krein space is the J-adjoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConstructionError, NotInCommutantError, NotPsdError
from .krein import DefinitizablePair, KreinSpace
from .tol import Tolerances, fro


def gram_factor(G, tol: Tolerances, scale_floor: float = 0.0, noise: float = 0.0) -> np.ndarray:
    """Factor a PSD matrix as G = F^H F with eigen-scaled orthogonal rows.

    F has rank(G) rows, built from the eigenpairs kept above the rank cut
    (relative to the largest eigenvalue, floored at ``scale_floor`` and at the
    absolute rounding ``noise`` of the construction, so a Gram that is pure
    noise collapses to zero rows). Kept eigenvalues are ordered descending.
    Raises when G is indefinite beyond tolerance.
    """
    G = np.asarray(G, dtype=complex)
    G = (G + G.conj().T) / 2.0
    evals, vecs = np.linalg.eigh(G)
    top = float(evals[-1]) if evals.size else 0.0
    neg_bound = max(tol.spec * max(top, scale_floor, tol.abs), noise)
    if evals.size and evals[0] < -neg_bound:
        raise NotPsdError(
            f"Gram has eigenvalue {evals[0]:.3e} below -{neg_bound:.3e}"
        )
    cut = max(tol.rank * max(top, 0.0), neg_bound)
    kept = np.where(evals > cut)[0]
    keep = kept[np.argsort(-evals[kept], kind="stable")]
    F = np.sqrt(evals[keep])[:, None] * vecs[:, keep].conj().T
    return F


@dataclass(frozen=True)
class EmbeddingBundle:
    """Factor matrices, injections, and contractions of one instance.

    Shapes: F is r x n, F1 is r1 x n, F2 is r2 x n; T = J^{-1} F^H maps the
    r-dimensional coordinate space V into the Krein space and its Krein
    adjoint is T* = F. R_j maps V_j into V. RR1 = R1 R1^*, RR2 = R2 R2^* and
    TT = T^* T on V are computed once at construction.
    """

    pair: DefinitizablePair
    F: np.ndarray
    F1: np.ndarray
    F2: np.ndarray
    T: np.ndarray
    T1: np.ndarray
    T2: np.ndarray
    R1: np.ndarray
    R2: np.ndarray
    gram: np.ndarray
    gram1: np.ndarray
    gram2: np.ndarray
    RR1: np.ndarray
    RR2: np.ndarray
    TT: np.ndarray
    scale: float
    noise: float = 0.0
    report: tuple = field(default=(), compare=False)

    @property
    def space(self) -> KreinSpace:
        return self.pair.space

    @property
    def dim_v(self) -> int:
        return self.F.shape[0]

    def dim_part(self, j: int) -> int:
        return self.f_part(j).shape[0]

    def f_part(self, j: int) -> np.ndarray:
        return (self.F1, self.F2)[_part_index(j)]

    def t_part(self, j: int) -> np.ndarray:
        return (self.T1, self.T2)[_part_index(j)]

    def r_part(self, j: int) -> np.ndarray:
        return (self.R1, self.R2)[_part_index(j)]

    def rr(self, j: int) -> np.ndarray:
        """R_j R_j^* on V."""
        return (self.RR1, self.RR2)[_part_index(j)]

    def rr_co(self, j: int) -> np.ndarray:
        """R_j^* R_j on V_j."""
        R = self.r_part(j)
        return R.conj().T @ R

    def tt_on_v(self) -> np.ndarray:
        """T^* T on V."""
        return self.TT

    def tt_on_part(self, j: int) -> np.ndarray:
        Fj = self.f_part(j)
        return Fj @ self.space.Jinv @ Fj.conj().T

    def ttstar(self) -> np.ndarray:
        """T T^* = p(A) + q(B) on the Krein space."""
        return self.space.Jinv @ self.gram

    def ttstar_part(self, j: int) -> np.ndarray:
        return self.space.Jinv @ (self.gram1, self.gram2)[_part_index(j)]

    # -- transfer maps -----------------------------------------------------

    def _gram_floor(self) -> float:
        # Grams below this are rounding noise of the construction scale;
        # a numerically-zero Gram commutes with everything.
        return max(self.space.tol.spec * self.scale, self.noise)

    def _negligible(self, C) -> bool:
        # arguments at the noise floor are the zero operator: transferring
        # them through the rank-cut inverse would only amplify noise
        return fro(C) <= self._gram_floor()

    def compress(self, C) -> np.ndarray:
        """Solve T X = C T for the action of C on V.

        Defined on the commutant of T T^*; membership is checked, then the
        residual of the solve certifies the result.
        """
        C = np.asarray(C, dtype=complex)
        if self._negligible(C):
            return np.zeros((self.dim_v, self.dim_v), dtype=complex)
        self._check_commutant(C, self.ttstar(), "T T*", self._gram_floor())
        X = self._t_solve(self.F, C)
        self._certify(self.T @ X, C @ self.T, C, "compression onto V")
        return X

    def compress_part(self, C, j: int) -> np.ndarray:
        """Solve T_j X = C T_j for the action of C on V_j."""
        C = np.asarray(C, dtype=complex)
        rj = self.dim_part(j)
        if self._negligible(C):
            return np.zeros((rj, rj), dtype=complex)
        self._check_commutant(C, self.ttstar_part(j), f"T{j} T{j}*", self._gram_floor())
        Fj = self.f_part(j)
        X = self._t_solve(Fj, C)
        self._certify(self.t_part(j) @ X, C @ self.t_part(j), C, f"compression onto V{j}")
        return X

    def part_from_full(self, D, j: int) -> np.ndarray:
        """Solve R_j Y = D R_j for the V_j representative of D on V."""
        D = np.asarray(D, dtype=complex)
        self._check_commutant(D, self.rr(j), f"R{j} R{j}*", self.space.tol.spec)
        R = self.r_part(j)
        Y = np.linalg.lstsq(R, D @ R, rcond=None)[0]
        self._certify(R @ Y, D @ R, D, f"restriction to V{j}")
        return Y

    def expand(self, D) -> np.ndarray:
        """T D T^* back on the Krein space (T^* = F)."""
        D = np.asarray(D, dtype=complex)
        self._check_commutant(D, self.TT, "T* T", self._gram_floor())
        return self.T @ D @ self.F

    def expand_part(self, Dj, j: int) -> np.ndarray:
        """T_j D_j T_j^* back on the Krein space."""
        Dj = np.asarray(Dj, dtype=complex)
        self._check_commutant(Dj, self.tt_on_part(j), f"T{j}* T{j}", self._gram_floor())
        return self.t_part(j) @ Dj @ self.f_part(j)

    def embed_part(self, Dj, j: int) -> np.ndarray:
        """R_j D_j R_j^* on V."""
        Dj = np.asarray(Dj, dtype=complex)
        self._check_commutant(Dj, self.rr_co(j), f"R{j}* R{j}", self.space.tol.spec)
        R = self.r_part(j)
        return R @ Dj @ R.conj().T

    # -- internals ---------------------------------------------------------

    def _t_solve(self, F, C):
        # X = (F F^H)^{-1} F J C J^{-1} F^H; F F^H is the kept-eigenvalue
        # diagonal because F has orthogonal rows (see gram_factor)
        J, Jinv = self.space.J, self.space.Jinv
        rhs = F @ (J @ C @ Jinv) @ F.conj().T
        return rhs / _row_norms2(F)[:, None]

    def _check_commutant(self, C, S, name, floor):
        if fro(S) <= floor:
            return
        resid = fro(C @ S - S @ C)
        bound = self.space.tol.spec * max(fro(C) * fro(S), self.space.tol.abs)
        if resid > bound:
            raise NotInCommutantError(
                f"argument does not commute with {name}: "
                f"residual {resid:.2e} > {bound:.2e}"
            )

    def _certify(self, left, right, C, what):
        resid = fro(left - right)
        bound = self.space.tol.spec * max(fro(C) * max(fro(self.T), 1.0), self.space.tol.abs)
        if resid > bound:
            raise NotInCommutantError(
                f"{what} failed certification: residual {resid:.2e} > {bound:.2e}"
            )


class Expansion:
    """``bundle.expand(augmented_integral(data, w, g, critical, RR1, RR2))``
    as one ``n x r x n`` product per call. The commutant check of
    :meth:`EmbeddingBundle.expand` becomes a certificate made once per
    measure, plus an exact per-call bound where critical atoms carry weight.

    With ``D = L Q^H`` the augmented integral (``L`` is ``Q diag(w[labels])``
    with the critical columns ``RR_j Q_c diag(g_j[labels])``), ``T D T^* =
    (T L)(Q^H F)``, and ``T L`` is ``TQ diag(w[labels])`` with the critical
    columns taken from the kept ``T RR_j Q_c``.

    Commutant certificate. Let ``M = Q^H TT Q`` and ``Y = Q^H D Q``; ``Q`` is
    unitary, so ``||[D, TT]||_F = ||[Y, M]||_F`` and ``||D||_F = ||Y||_F``.
    Split ``Y`` by columns into ``Y_n = diag(w[labels])`` on the noncritical
    columns and ``Y_c = sum_a gamma_a Y_a`` over the critical atoms ``a = (c,
    j)``: the cluster-c columns of ``Q^H RR_j Q``, weighted by ``gamma_a =
    g[c, j - 1]``.

    1. ``[Y_n, M]`` has entries ``(y_a - y_b) M_ab``, zero where the labels
       of a and b agree, so ``||[Y_n, M]||_F <= 2 max|w| mu`` with ``mu`` the
       norm of ``M`` off the diagonal blocks of the labels.
    2. ``||[Y_c, M]||_F^2 = gamma^H Gamma gamma`` exactly, with the Gram
       ``Gamma_ab = <[Y_a, M], [Y_b, M]>`` of the atoms' commutators.
    3. The columns are disjoint, so ``||D||_F^2 = sum_i d_i |w_i|^2 +
       gamma^H B gamma`` with ``d_i`` the size of cluster i and
       ``B_ab = <Y_a, Y_b>``.

    The certificate, checked at construction, is ``2 mu <= spec ||TT||_F``.
    Since every cluster has a column, ``max|w| <= ||D||_F``, so without
    critical atoms ``||[D, TT]||_F <= 2 max|w| mu <= spec ||D||_F ||TT||_F``
    for every ``w``: the bound of :meth:`EmbeddingBundle.expand`. With
    critical atoms each call tests ``2 max|w| mu + sqrt(gamma^H Gamma gamma)
    <= spec max(||D||_F ||TT||_F, abs)``, ``||D||_F`` from 3, which implies
    that bound by the triangle inequality, at a cost linear in the number of
    clusters. No per-measure bound
    covers the critical atoms for every ``gamma``: at a simple critical
    eigenvalue ``RR1 P_c`` and ``RR2 P_c`` are parallel up to rounding, so
    some ``gamma`` leaves ``D`` at rounding level but not its commutator.
    As in :meth:`EmbeddingBundle.expand`, a ``TT`` below the Gram floor
    commutes with everything and nothing is checked.
    """

    def __init__(self, bundle: EmbeddingBundle, data, critical):
        Q, labels = data.Q, data.labels
        cols = np.asarray(critical, dtype=bool)[labels]
        self._labels = labels
        self._cols = np.flatnonzero(cols)
        self._col_labels = labels[cols]
        self._TQ = bundle.T @ Q
        self._QhF = Q.conj().T @ bundle.F
        Qc = Q[:, cols]
        RQ = [bundle.rr(j) @ Qc for j in (1, 2)]
        self._TRQ = [bundle.T @ X for X in RQ]

        tol = bundle.space.tol
        self._spec, self._abs = tol.spec, tol.abs
        self._tt_norm = fro(bundle.TT)
        self._atoms = None
        if self._tt_norm <= bundle._gram_floor():
            return
        M = Q.conj().T @ bundle.TT @ Q
        self._mu = fro(np.where(labels[:, None] == labels[None, :], 0.0, M))
        if 2 * self._mu > self._spec * self._tt_norm:
            raise NotInCommutantError(
                f"spectral measure does not commute with T* T: off-block residual "
                f"2 * {self._mu:.2e} > {self._spec * self._tt_norm:.2e}"
            )
        self._sizes = np.bincount(labels, minlength=len(data.centers))
        crit = np.flatnonzero(np.asarray(critical, dtype=bool))
        if not crit.size:
            return
        # atom (c, j): the cluster-c columns of Q^H RR_j Q, zero elsewhere
        r = Q.shape[0]
        Y = np.zeros((crit.size, 2, r, r), dtype=complex)
        for i, c in enumerate(crit):
            at = np.flatnonzero(labels == c)
            in_c = self._col_labels == c
            for j in (0, 1):
                Y[i, j][:, at] = Q.conj().T @ RQ[j][:, in_c]
        Y = Y.reshape(-1, r, r)
        C = (Y @ M - M @ Y).reshape(len(Y), -1)
        Y = Y.reshape(len(Y), -1)
        self._atoms = (crit, C.conj() @ C.T, Y.conj() @ Y.T)

    def __call__(self, w, g) -> np.ndarray:
        """``expand(augmented_integral(data, w, g, critical, RR1, RR2))``;
        ``w`` and ``g`` are aligned with ``data.centers`` as there."""
        if self._atoms is not None:
            self._check(w, g)
        left = self._TQ * w[self._labels]
        if self._cols.size:
            gc = g[self._col_labels]
            left[:, self._cols] = self._TRQ[0] * gc[:, 0] + self._TRQ[1] * gc[:, 1]
        return left @ self._QhF

    def _check(self, w, g):
        crit, comm, gram = self._atoms
        gamma = g[crit].reshape(-1)
        resid = 2 * np.abs(w).max(initial=0.0) * self._mu + np.sqrt(
            max(float((gamma.conj() @ comm @ gamma).real), 0.0)
        )
        d2 = float(self._sizes @ np.abs(w) ** 2 + (gamma.conj() @ gram @ gamma).real)
        bound = self._spec * max(np.sqrt(max(d2, 0.0)) * self._tt_norm, self._abs)
        if resid > bound:
            raise NotInCommutantError(
                f"argument does not commute with T* T: residual at most {resid:.2e}, "
                f"not within {bound:.2e}"
            )


def _row_norms2(F) -> np.ndarray:
    """Diagonal of F F^H: the squared row norms."""
    return np.linalg.norm(F, axis=1) ** 2


def _part_index(j: int) -> int:
    if j not in (1, 2):
        raise ValueError("part index must be 1 or 2")
    return j - 1


def build_bundle(pair: DefinitizablePair) -> EmbeddingBundle:
    """Construct the embedding bundle and verify its invariants.

    The contractions are obtained from R_j^* = F_j F^H (F F^H)^{-1}, the
    unique bounded continuation of T^* x -> T_j^* x, which is well defined
    because ker F = ker F_j intersected over j. F F^H is the diagonal of the
    squared row norms of F.
    """
    space, tol = pair.space, pair.space.tol
    Gp, Gq, G = pair.gram_parts()
    scale = max(float(np.linalg.norm(G, 2)), tol.abs)
    scale_a, scale_b = pair.eval_scales
    eval_scale = scale_a + scale_b
    noise = 1e4 * np.finfo(float).eps * eval_scale
    F = gram_factor(G, tol, scale_floor=scale, noise=noise)
    F1 = gram_factor(Gp, tol, scale_floor=scale, noise=noise)
    F2 = gram_factor(Gq, tol, scale_floor=scale, noise=noise)

    Jinv = space.Jinv
    T = Jinv @ F.conj().T
    T1 = Jinv @ F1.conj().T
    T2 = Jinv @ F2.conj().T

    d = _row_norms2(F)
    R1 = (F1 @ F.conj().T / d).conj().T
    R2 = (F2 @ F.conj().T / d).conj().T
    RR1, RR2, TT = R1 @ R1.conj().T, R2 @ R2.conj().T, F @ Jinv @ F.conj().T
    for arr in (RR1, RR2, TT):
        arr.setflags(write=False)

    bundle = EmbeddingBundle(
        pair=pair, F=F, F1=F1, F2=F2, T=T, T1=T1, T2=T2, R1=R1, R2=R2,
        gram=G, gram1=Gp, gram2=Gq, RR1=RR1, RR2=RR2, TT=TT,
        scale=scale, noise=noise,
    )
    report = verify_bundle(bundle)
    worst = max((r for _, r, _ in report), default=0.0)
    if any(r > b for _, r, b in report):
        raise ConstructionError(
            f"bundle invariants fail (worst residual {worst:.2e})", report
        )
    object.__setattr__(bundle, "report", tuple(report))
    return bundle


def verify_bundle(bundle: EmbeddingBundle):
    """Residuals of the construction identities: (name, residual, bound)."""
    pair, tol = bundle.pair, bundle.space.tol
    scale = bundle.scale
    noisy = 10 * bundle.noise
    pA = pair.p.of_matrix(pair.A)
    qB = pair.q.of_matrix(pair.B)
    r = bundle.dim_v
    out = []

    def entry(name, resid, bound):
        out.append((name, float(resid), float(bound)))

    entry("T T* = p(A) + q(B)", fro(bundle.ttstar() - (pA + qB)), tol.rel * scale + noisy)
    entry("T1 T1* = p(A)", fro(bundle.ttstar_part(1) - pA), tol.rel * scale + noisy)
    entry("T2 T2* = q(B)", fro(bundle.ttstar_part(2) - qB), tol.rel * scale + noisy)
    rr_sum = bundle.RR1 + bundle.RR2
    entry("R1 R1* + R2 R2* = I", fro(rr_sum - np.eye(r)), tol.rel)
    ttv = bundle.TT
    for j in (1, 2):
        Rj = bundle.r_part(j)
        entry(
            f"T{j} = T R{j}",
            fro(bundle.t_part(j) - bundle.T @ Rj),
            tol.rel * max(1.0, scale) + noisy,
        )
        norm = float(np.linalg.norm(Rj, 2)) if Rj.size else 0.0
        entry(f"||R{j}|| <= 1", max(0.0, norm - 1.0), tol.rel)
        if Rj.size:
            smin = float(np.linalg.svd(Rj, compute_uv=False)[-1])
            entry(f"R{j} injective", 1.0 if smin <= tol.rank else 0.0, 0.5)
        entry(
            f"[R{j} R{j}*, T* T] = 0",
            fro(bundle.rr(j) @ ttv - ttv @ bundle.rr(j)),
            tol.rel * max(1.0, fro(ttv)),
        )
        ttp = bundle.tt_on_part(j)
        entry(
            f"[R{j}* R{j}, T{j}* T{j}] = 0",
            fro(bundle.rr_co(j) @ ttp - ttp @ bundle.rr_co(j)),
            tol.rel * max(1.0, fro(ttp)),
        )
    return out

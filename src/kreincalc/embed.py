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
from .krein import DefinitizablePair, KreinSpace, poly_eval_scale
from .tol import Tolerances


def _fro(M):
    return float(np.linalg.norm(M, "fro"))


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
    neg_bound = max(tol.psd * max(top, scale_floor, tol.abs), noise)
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
        return max(self.space.tol.psd * self.scale, self.noise)

    def _negligible(self, C) -> bool:
        # arguments at the noise floor are the zero operator: transferring
        # them through the rank-cut inverse would only amplify noise
        return _fro(C) <= self._gram_floor()

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
        self._check_commutant(D, self.rr(j), f"R{j} R{j}*", self.space.tol.psd)
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
        self._check_commutant(Dj, self.rr_co(j), f"R{j}* R{j}", self.space.tol.psd)
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
        if _fro(S) <= floor:
            return
        resid = _fro(C @ S - S @ C)
        bound = self.space.tol.comm * max(_fro(C) * _fro(S), self.space.tol.abs)
        if resid > bound:
            raise NotInCommutantError(
                f"argument does not commute with {name}: "
                f"residual {resid:.2e} > {bound:.2e}"
            )

    def _certify(self, left, right, C, what):
        resid = _fro(left - right)
        bound = self.space.tol.comm * max(_fro(C) * max(_fro(self.T), 1.0), self.space.tol.abs)
        if resid > bound:
            raise NotInCommutantError(
                f"{what} failed certification: residual {resid:.2e} > {bound:.2e}"
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
    eval_scale = poly_eval_scale(space, pair.A, pair.p) + poly_eval_scale(
        space, pair.B, pair.q
    )
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

    entry("T T* = p(A) + q(B)", _fro(bundle.ttstar() - (pA + qB)), tol.rel * scale + noisy)
    entry("T1 T1* = p(A)", _fro(bundle.ttstar_part(1) - pA), tol.rel * scale + noisy)
    entry("T2 T2* = q(B)", _fro(bundle.ttstar_part(2) - qB), tol.rel * scale + noisy)
    rr_sum = bundle.RR1 + bundle.RR2
    entry("R1 R1* + R2 R2* = I", _fro(rr_sum - np.eye(r)), tol.rel)
    ttv = bundle.TT
    for j in (1, 2):
        Rj = bundle.r_part(j)
        entry(
            f"T{j} = T R{j}",
            _fro(bundle.t_part(j) - bundle.T @ Rj),
            tol.rel * max(1.0, scale) + noisy,
        )
        norm = float(np.linalg.norm(Rj, 2)) if Rj.size else 0.0
        entry(f"||R{j}|| <= 1", max(0.0, norm - 1.0), tol.rel)
        if Rj.size:
            smin = float(np.linalg.svd(Rj, compute_uv=False)[-1])
            entry(f"R{j} injective", 1.0 if smin <= tol.rank else 0.0, 0.5)
        entry(
            f"[R{j} R{j}*, T* T] = 0",
            _fro(bundle.rr(j) @ ttv - ttv @ bundle.rr(j)),
            tol.rel * max(1.0, _fro(ttv)),
        )
        ttp = bundle.tt_on_part(j)
        entry(
            f"[R{j}* R{j}, T{j}* T{j}] = 0",
            _fro(bundle.rr_co(j) @ ttp - ttp @ bundle.rr_co(j)),
            tol.rel * max(1.0, _fro(ttp)),
        )
    return out

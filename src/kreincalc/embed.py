"""Hilbert-space embeddings of a definitizable pair.

Realizes the coordinate spaces V, V1, V2 through rank-revealing factorizations
of the weighted Grams J (p(A) + q(B)), J p(A) and J q(B), one
:class:`CoordinateSpace` each with its injection back into the Krein space,
the contractions R1, R2 relating them, and the transfer maps between the
commutants living on these spaces: compress and expand between the Krein
space and any V_j, and the two maps between V and V_j.

Coordinates carry the standard inner product (factor rows are eigen-scaled),
so Hilbert adjoints on V, V1, V2 are plain conjugate transposes, while * on
operators over the Krein space is the J-adjoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConstructionError, NotInCommutantError, NotPsdError
from .krein import DefinitizablePair, KreinSpace
from .tol import Tolerances, fro, fro_each


def gram_factor(eig, tol: Tolerances, scale_floor: float = 0.0, noise: float = 0.0) -> tuple:
    """Factor a PSD matrix G = F^H F with eigen-scaled orthogonal rows, from
    its eigendecomposition ``eig = (evals, vecs)``, the ``eigh`` of G.

    F has rank(G) rows, built from the eigenpairs kept above the rank cut
    (relative to the largest eigenvalue, floored at ``scale_floor`` and at the
    absolute rounding ``noise`` of the construction, so a Gram that is pure
    noise collapses to zero rows). Kept eigenvalues are ordered descending.
    Returns ``(F, top, dropped)`` with ``top`` the largest eigenvalue of G
    and ``dropped`` the Frobenius norm of the eigenvalues below the cut, that
    is of G - F^H F. Raises when G is indefinite beyond tolerance.
    """
    evals, vecs = eig
    top = float(evals[-1]) if evals.size else 0.0
    neg_bound = max(tol.spec * max(top, scale_floor, tol.abs), noise)
    if evals.size and evals[0] < -neg_bound:
        raise NotPsdError(
            f"Gram has eigenvalue {evals[0]:.3e} below -{neg_bound:.3e}"
        )
    cut = max(tol.rank * max(top, 0.0), neg_bound)
    above = evals > cut
    kept = np.flatnonzero(above)
    keep = kept[np.argsort(-evals[kept], kind="stable")]
    F = np.sqrt(evals[keep])[:, None] * vecs[:, keep].conj().T
    return F, top, float(np.linalg.norm(evals[~above]))


@dataclass(frozen=True)
class CoordinateSpace:
    """One Hilbert coordinate space: the factor F (r x n) of a weighted Gram
    G = F^H F, the injection T = J^{-1} F^H into the Krein space (J its
    Gram), whose Krein adjoint is T^* = F, and TT = T^* T on the
    coordinates. ``dropped`` is the Frobenius norm of G - F^H F, what the
    rank cut of :func:`gram_factor` left out. For V1 and V2, R is the
    contraction R_j into V and RR = R_j R_j^* on V; both are None for V
    itself.

    The fixed factors of the transfer maps (T T^*, the left inverse of T,
    the Frobenius norms the checks scale by and the pseudo-inverse of R) are
    made on first use and kept; every one is read-only.
    """

    F: np.ndarray
    T: np.ndarray
    TT: np.ndarray
    J: np.ndarray
    dropped: float = 0.0
    R: np.ndarray = None
    RR: np.ndarray = None

    @classmethod
    def of(cls, F, space: KreinSpace, dropped: float = 0.0, R=None) -> "CoordinateSpace":
        T = space.Jinv @ F.conj().T
        TT = _read_only(F @ T)
        RR = None if R is None else _read_only(R @ R.conj().T)
        return cls(F, T, TT, space.J, dropped, R, RR)

    @property
    def dim(self) -> int:
        return self.F.shape[0]

    @cached_property
    def outer(self) -> np.ndarray:
        """T T^* = T F on the Krein space."""
        return _read_only(self.T @ self.F)

    @cached_property
    def left(self) -> np.ndarray:
        """(F F^H)^{-1} F J, a left inverse of T, so compress(C) = left C T;
        F F^H is the diagonal of the squared row norms (see gram_factor)."""
        return _read_only((self.F @ self.J) / _row_norms2(self.F)[:, None])

    @cached_property
    def R_pinv(self) -> np.ndarray:
        """The pseudo-inverse of R, a left inverse: R is injective, as the
        bundle's ``R_j injective`` entry certifies by a lower bound on its
        smallest singular value (see :func:`verify_bundle`)."""
        return _read_only(np.linalg.pinv(self.R))

    @cached_property
    def outer_norm(self) -> float:
        return fro(self.outer)

    @cached_property
    def tt_norm(self) -> float:
        return fro(self.TT)

    @cached_property
    def rr_norm(self) -> float:
        return fro(self.RR)

    @cached_property
    def t_norm(self) -> float:
        return fro(self.T)


@dataclass(frozen=True)
class EmbeddingBundle:
    """The coordinate spaces and contractions of one instance.

    ``coords[j]`` is the :class:`CoordinateSpace` of V (j = 0), V1 (j = 1)
    and V2 (j = 2), factoring J (p(A) + q(B)), J p(A) and J q(B); for
    j = 1, 2 it also holds the contraction R_j: V_j -> V and R_j R_j^*,
    computed once at construction. The transfer maps are :meth:`compress`
    and :meth:`expand` between the Krein space and any V_j, and
    :meth:`part_from_full` from V to V_j.
    """

    pair: DefinitizablePair
    coords: tuple
    scale: float
    noise: float = 0.0
    report: tuple = field(default=(), compare=False)

    @property
    def space(self) -> KreinSpace:
        return self.pair.space

    @property
    def dim_v(self) -> int:
        return self.coords[0].dim

    # -- transfer maps -----------------------------------------------------

    def _gram_floor(self) -> float:
        # Grams and arguments below this are rounding noise of the
        # construction scale; a numerically-zero Gram commutes with everything
        return max(self.space.tol.spec * self.scale, self.noise)

    def compress(self, C, j: int = 0) -> np.ndarray:
        """Solve T_j X = C T_j for the action of C on V_j (V for j = 0).

        ``C`` is one operator or a stack of shape ``(..., n, n)``; the result
        has the same leading shape. Defined on the commutant of T_j T_j^*:
        membership of every operator is checked, then the residual of the
        solve certifies it. Operators at the noise floor are the zero
        operator (transferring them through the rank-cut inverse would only
        amplify noise) and map to zero unchecked. The first operator of the
        stack failing a check raises.
        """
        V = self.coords[j]
        C = np.asarray(C, dtype=complex)
        norms = fro_each(C)
        floor = self._gram_floor()
        live = norms > floor
        t = f"T{j or ''}"
        self._check_commutant(C, norms, live, V.outer, V.outer_norm, f"{t} {t}*", floor)
        X = V.left @ C @ V.T
        X[~live] = 0.0
        self._certify(V.T @ X - C @ V.T, norms, live, f"compression onto V{j or ''}")
        return X

    def expand(self, D, j: int = 0) -> np.ndarray:
        """T_j D T_j^* back on the Krein space (T_j^* = F_j), for one
        operator or a stack ``(..., r_j, r_j)``."""
        V = self.coords[j]
        D = np.asarray(D, dtype=complex)
        t = f"T{j or ''}"
        self._check_commutant(
            D, fro_each(D), True, V.TT, V.tt_norm, f"{t}* {t}", self._gram_floor()
        )
        return V.T @ D @ V.F

    def part_from_full(self, D, j: int) -> np.ndarray:
        """Solve R_j Y = D R_j for the V_j representative of D on V, for one
        operator or a stack ``(..., r, r)``: Y = R_j^+ D R_j, certified."""
        D = np.asarray(D, dtype=complex)
        norms = fro_each(D)
        Vj = self.coords[j]
        self._check_commutant(D, norms, True, Vj.RR, Vj.rr_norm, f"R{j} R{j}*", self.space.tol.spec)
        DR = D @ Vj.R
        Y = Vj.R_pinv @ DR
        self._certify(Vj.R @ Y - DR, norms, True, f"restriction to V{j}")
        return Y

    # -- internals ---------------------------------------------------------

    def _check_commutant(self, C, norms, live, S, s_norm, name, floor):
        # the operators of the stack C (Frobenius norms ``norms``) where
        # ``live`` must commute with S; an S at the floor commutes with all
        if s_norm <= floor:
            return
        tol = self.space.tol
        resid = fro_each(C @ S - S @ C)
        bound = tol.spec * np.maximum(norms * s_norm, tol.abs)
        _raise_first(live & (resid > bound), resid, bound, f"argument does not commute with {name}")

    def _certify(self, diff, norms, live, what):
        # the residual of each solve, relative to its operator's norm
        tol = self.space.tol
        resid = fro_each(diff)
        bound = tol.spec * np.maximum(norms * max(self.coords[0].t_norm, 1.0), tol.abs)
        _raise_first(live & (resid > bound), resid, bound, f"{what} failed certification")


def _raise_first(bad, resid, bound, what):
    """Raise for the first operator of a stack where ``bad`` is set."""
    hit = np.flatnonzero(bad)
    if hit.size:
        i = hit[0]
        raise NotInCommutantError(
            f"{what}: residual {np.ravel(resid)[i]:.2e} > {np.ravel(bound)[i]:.2e}"
        )


class Expansion:
    """``bundle.expand(D)`` of the augmented integral ``D`` of ``(w, g)``
    (critical cluster i weights ``RR1``, ``RR2`` on its atom by ``g[i]``,
    others their projection by ``w[i]``) as one ``n x r x n`` product per
    call. The commutant check of
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
        V = bundle.coords[0]
        self._TQ = V.T @ Q
        self._QhF = Q.conj().T @ V.F
        Qc = Q[:, cols]
        RQ = [bundle.coords[j].RR @ Qc for j in (1, 2)]
        self._TRQ = [V.T @ X for X in RQ]

        tol = bundle.space.tol
        self._spec, self._abs = tol.spec, tol.abs
        self._tt_norm = V.tt_norm
        self._atoms = None
        if self._tt_norm <= bundle._gram_floor():
            return
        M = Q.conj().T @ V.TT @ Q
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
        """The expanded augmented integral of ``(w[i], g[i])`` for every row
        i of ``w`` (m x k) and ``g`` (m x k x 2), rows aligned with
        ``data.centers``: an ``m x n x n`` stack of ``(n x r) @ (r x n)``
        products, one per row, so a row's result does not depend on the
        rows beside it. Every row is checked."""
        if self._atoms is not None:
            for wi, gi in zip(w, g):
                self._check(wi, gi)
        left = self._TQ * w[:, None, self._labels]
        if self._cols.size:
            gc = g[:, None, self._col_labels]
            left[:, :, self._cols] = self._TRQ[0] * gc[..., 0] + self._TRQ[1] * gc[..., 1]
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


def _read_only(arr):
    arr.setflags(write=False)
    return arr


def _row_norms2(F) -> np.ndarray:
    """Diagonal of F F^H: the squared row norms."""
    return np.linalg.norm(F, axis=1) ** 2


def build_bundle(pair: DefinitizablePair) -> EmbeddingBundle:
    """Construct the embedding bundle and verify its invariants.

    The contractions are obtained from R_j^* = F_j F^H (F F^H)^{-1}, the
    unique bounded continuation of T^* x -> T_j^* x, which is well defined
    because ker F = ker F_j intersected over j. F F^H is the diagonal of the
    squared row norms of F. The scale of the construction is the top
    eigenvalue of J (p(A) + q(B)), PSD up to rounding, so its spectral norm.
    Only that Gram is decomposed here: J p(A) and J q(B) come with the
    eigendecompositions the pair's validation made
    (:attr:`~kreincalc.krein.DefinitizablePair.definitizing_grams`), which the
    pair then drops.
    """
    space, tol = pair.space, pair.space.tol
    (Gp, *eig_p), (Gq, *eig_q) = pair.definitizing_grams
    pair.drop_grams()
    noise = 1e4 * np.finfo(float).eps * sum(pair.eval_scales)
    F, top, dropped = gram_factor(np.linalg.eigh(Gp + Gq), tol, noise=noise)
    scale = max(top, tol.abs)
    coords = [CoordinateSpace.of(F, space, dropped)]
    d = _row_norms2(F)
    for eig in (eig_p, eig_q):
        Fj, _, dropped = gram_factor(eig, tol, scale_floor=scale, noise=noise)
        Rj = (Fj @ F.conj().T / d).conj().T
        coords.append(CoordinateSpace.of(Fj, space, dropped, Rj))

    bundle = EmbeddingBundle(pair=pair, coords=tuple(coords), scale=scale, noise=noise)
    report = verify_bundle(bundle)
    worst = max((r for _, r, _ in report), default=0.0)
    if any(r > b for _, r, b in report):
        raise ConstructionError(
            f"bundle invariants fail (worst residual {worst:.2e})", report
        )
    object.__setattr__(bundle, "report", tuple(report))
    return bundle


def verify_bundle(bundle: EmbeddingBundle):
    """Residuals of the construction identities: (name, residual, bound).

    The Gram identities, the partition R1 R1* + R2 R2* = I, T_j = T R_j and
    the commutator of R_j R_j* with T* T are computed. ``||R_j|| <= 1``,
    ``R_j injective`` and the commutator of R_j* R_j with T_j* T_j are
    certified from those residuals and from the row norms of the factors,
    which are their singular values (the rows of :func:`gram_factor` are
    orthogonal), so no matrix here is decomposed; each derivation sits beside
    its entry. The last commutator is measured only where its certificate is
    not within the threshold. ``R_j injective`` is reported only for a
    nonempty R_j.

    The Gram identities measure T_j F_j, so they check the stored factors.
    T_j F_j misses the target by J^{-1} (G_j - F_j^H F_j), what the rank cut
    dropped, so their bound adds ||J^{-1}||_2 times the dropped norm.
    """
    pair, space, tol = bundle.pair, bundle.space, bundle.space.tol
    scale = bundle.scale
    noisy = 10 * bundle.noise
    pA, qB = pair.poly_values
    V = bundle.coords[0]
    r = bundle.dim_v
    out = []

    def entry(name, resid, bound):
        out.append((name, float(resid), float(bound)))

    grams = (("T T* = p(A) + q(B)", pA + qB), ("T1 T1* = p(A)", pA), ("T2 T2* = q(B)", qB))
    for j, (Vj, (name, target)) in enumerate(zip(bundle.coords, grams)):
        # V's T F is the cached T T* that compress reads next, bit for bit
        outer = V.outer if j == 0 else Vj.T @ Vj.F
        lost = space.inv_norm * Vj.dropped
        entry(name, fro(outer - target), tol.rel * scale + noisy + lost)
    e = fro(bundle.coords[1].RR + bundle.coords[2].RR - np.eye(r))
    entry("R1 R1* + R2 R2* = I", e, tol.rel)
    # R_j R_j^* = I + E - R_k R_k^* <= I + E with ||E||_2 <= e, so ||R_j||^2
    # <= 1 + e and ||R_j|| - 1 <= e / 2, up to the rounding of the stored
    # R_j R_j^* (eps r_j ||R_j||_F^2)
    norm_sq = 1.0 + e
    f_norm = np.sqrt(_row_norms2(V.F).max(initial=0.0))
    for j in (1, 2):
        Vj = bundle.coords[j]
        res = fro(Vj.T - V.T @ Vj.R)
        entry(f"T{j} = T R{j}", res, tol.rel * max(1.0, scale) + noisy)
        entry(f"||R{j}|| <= 1", e / 2, tol.rel)
        if Vj.R.size:
            # F_j^H = F^H R_j + J D_j with D_j = T_j - T R_j, so sigma_min(F_j)
            # <= ||F||_2 sigma_min(R_j) + ||J||_2 res: a positive lower bound
            # on sigma_min(R_j) above the rank cut certifies injectivity
            low = (np.sqrt(_row_norms2(Vj.F).min()) - space.norm * res) / f_norm
            entry(f"R{j} injective", 1.0 if low <= tol.rank else 0.0, 0.5)
        # X = R_j R_j^* and S = T^* T are Hermitian: [X, S] = X S - (X S)^H
        XS = Vj.RR @ V.TT
        c = fro(XS - XS.conj().T)
        entry(f"[R{j} R{j}*, T* T] = 0", c, tol.rel * max(1.0, V.tt_norm))
        # With F_j = R_j^* F + D_j^* J, T_j^* T_j = F_j J^{-1} F_j^H is
        # R_j^* S R_j + K + K^* + D_j^* J D_j, K = R_j^* F D_j, and
        # [R_j^* R_j, R_j^* S R_j] = R_j^* [R_j R_j^*, S] R_j. Hence the
        # commutator is at most ||R_j||^2 (c + 2 (2 ||K|| + ||J|| res^2)),
        # with ||K|| <= ||R_j|| ||F||_2 res. Where that bound is not within
        # the threshold (res is at rounding level, so only for thresholds
        # near rounding) the commutator itself is measured.
        k = np.sqrt(norm_sq) * f_norm * res
        resid = norm_sq * (c + 2 * (2 * k + space.norm * res**2))
        bound = tol.rel * max(1.0, Vj.tt_norm)
        if resid > bound:
            XS = (Vj.R.conj().T @ Vj.R) @ Vj.TT
            resid = fro(XS - XS.conj().T)
        entry(f"[R{j}* R{j}, T{j}* T{j}] = 0", resid, bound)
    return out

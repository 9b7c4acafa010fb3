"""Dense reference for the factored spectral measure.

Every cluster's projection formed as one ``(k, r, r)`` stack, and the
residuals of the seven Hilbert-side measure checks of
``suite.spectral_properties`` computed from that stack as products of
projections. The suite derives upper bounds on these quantities from ``Q``
and its cluster labels alone; the tests compare the two.
"""

import numpy as np

from kreincalc.spectral import snap_eigenvalues
from kreincalc.tol import fro, fro_each


def projections(data) -> np.ndarray:
    """Every cluster's projection as one ``(k, dim, dim)`` stack, entry i
    that of ``centers[i]``: ``Q`` with the other clusters' columns zeroed,
    times ``Q^H``."""
    own = data.labels == np.arange(len(data.centers))[:, None]
    return (data.Q * own[:, None, :]) @ data.Q.conj().T


def resolution_residual(data) -> float:
    """How far the projections are from a resolution of the identity: the
    worst of ``||sum E - I||_F`` and, over the clusters, ``||E_i^2 -
    E_i||_F``, ``||E_i - E_i^H||_F`` and ``||E_i E_j||_F`` (i < j)."""
    P = projections(data)
    resid = fro(P.sum(axis=0) - np.eye(data.dim))
    i, j = np.triu_indices(len(P), 1)
    for excess in (P @ P - P, P - P.conj().transpose(0, 2, 1), P[i] @ P[j]):
        resid = max(resid, float(fro_each(excess).max(initial=0.0)))
    return resid


def dense_measure_residuals(ctx) -> dict:
    """The residuals of the seven measure checks from the dense projection
    stacks, keyed by property name (without the ``spectral/`` group)."""
    bundle, data, cs = ctx.bundle, ctx.spectral, ctx.cs
    P = projections(data)
    lams = np.array(data.eigenvalues, dtype=complex)
    k = len(lams)
    out = {"measure-resolution": resolution_residual(data)}
    thN = ctx.theta_n
    out["measure-eigen"] = fro_each(thN @ P - lams[:, None, None] * P).max(initial=0.0)
    S = np.stack([bundle.coords[1].RR, bundle.coords[2].RR, bundle.coords[0].TT])[None]
    out["measure-commutant"] = fro_each(P[:, None] @ S - S @ P[:, None]).max(initial=0.0)

    p, q = ctx.pair.p, ctx.pair.q
    pv, qv = p(lams.real), q(lams.imag)
    sv = pv + qv
    free = ~ctx.layout.critical
    noncrit_e = P[free].sum(axis=0)
    for j, v in ((1, pv), (2, qv)):
        ratio = np.tensordot(v[free] / sv[free], P[free], 1)
        out[f"measure-weighted-{j}"] = fro(bundle.coords[j].RR @ noncrit_e - ratio)

    for j, (_, dataj) in enumerate(ctx.theta_parts, start=1):
        dataj, hits = snap_eigenvalues(dataj, data.eigenvalues, cs.radius)
        owner = {i: c for c, i in enumerate(hits)}
        owned = [i for i in range(k) if i in owner]
        Pj = np.zeros((k, dataj.dim, dataj.dim), dtype=complex)
        Pj[owned] = projections(dataj)[[owner[i] for i in owned]]
        parts = bundle.part_from_full(P, j)
        out[f"measure-transfer-{j}"] = fro_each(parts - Pj).max(initial=0.0)
    return {name: float(v) for name, v in out.items()}

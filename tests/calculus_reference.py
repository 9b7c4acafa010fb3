"""The uncompiled reference path of ``CalculusContext.apply``.

An interpolating polynomial in monomials, its remainder divided off the
definitizing pair, ``s(A, B)`` over monomial powers and the checked
``EmbeddingBundle.expand`` of a dense augmented integral: the path the
compiled maps of ``CalculusContext._compiled`` replaced, kept to check them.
"""

import numpy as np

from kreincalc import BiPoly, CalculusFunction
from kreincalc.bipoly import HermiteSystem
from kreincalc.spectral import _weights


def augmented_integral(data, w, g, critical, rr1, rr2) -> np.ndarray:
    """Spectral integral with contraction-weighted critical atoms.

    The arrays are aligned with ``data.centers``: eigenvalue i is critical
    when ``critical[i]``, and then weights ``rr1`` and ``rr2`` on its atom
    by the pair ``g[i]``; otherwise it weights its projection by ``w[i]``.
    The critical atoms enter as ``(rr1 Q_c diag(g1) + rr2 Q_c diag(g2)) Q_c^H``
    over the critical columns ``Q_c`` only.
    """
    k = len(data.centers)
    w, g = _weights(w, (k,)), _weights(g, (k, 2))
    Q, labels = data.Q, data.labels
    left = Q * w[labels]
    cols = np.asarray(critical, dtype=bool)[labels]
    if cols.any():
        Qc, lc = Q[:, cols], labels[cols]
        left[:, cols] = rr1 @ (Qc * g[lc, 0]) + rr2 @ (Qc * g[lc, 1])
    return left @ Q.conj().T


def interpolant(ctx, fn) -> BiPoly:
    """Low-degree polynomial matching the function's jets on the zero grid.

    Critical points contribute the box part of their jets, zero pairs their
    whole jet.
    """
    ctx._check_owns(fn)
    return HermiteSystem(ctx.cs.grid, ctx.tol).solve(fn.coords[ctx.layout.grid_index])


def remainder(ctx, fn, s: BiPoly):
    """Divide fn - lift(s) off the definitizing pair: ``(w, g)`` aligned
    with the spectral clusters, as :func:`augmented_integral` reads them.
    Raises when the difference is not in the vanishing-projection ideal."""
    ctx._check_owns(fn)
    return ctx._weights(fn.coords, ctx.lift(s).coords)


def decompose(ctx, fn):
    s = interpolant(ctx, fn)
    return (s, *remainder(ctx, fn, s))


def apply_decomposition(ctx, s: BiPoly, w, g) -> np.ndarray:
    """s(A, B) plus the expanded augmented integral of ``(w, g)``."""
    _, V1, V2 = ctx.bundle.coords
    D = augmented_integral(ctx.spectral, w, g, ctx.layout.critical, V1.RR, V2.RR)
    return ctx.polynomial_at_pair(s) + ctx.bundle.expand(D)


def zero_off_support(ctx, fn):
    """``fn`` with its jets at nonreal pairs outside the support zeroed."""
    if not ctx.layout.pairs_off.size:
        return fn
    coords = fn.coords.copy()
    coords[ctx.layout.pairs_off] = 0.0
    return CalculusFunction(ctx.cs, coords)


def reference_apply(ctx, fn) -> np.ndarray:
    """``ctx.apply(fn)`` through the reference path."""
    return apply_decomposition(ctx, *decompose(ctx, zero_off_support(ctx, fn)))

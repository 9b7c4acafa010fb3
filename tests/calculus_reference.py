"""The uncompiled reference path of ``CalculusContext.apply``.

An interpolating polynomial in monomials, its remainder divided off the
definitizing pair, ``s(A, B)`` over monomial powers and the checked
``EmbeddingBundle.expand`` of a dense augmented integral: the path the
compiled maps of ``CalculusContext._compiled`` and the compiled lift
replaced, kept to check them; and the jets of a polynomial at given
points or on a zero grid, read off one batched Taylor shift.
"""

import numpy as np

from kreincalc import BiPoly, CalculusFunction, Jet
from kreincalc.bipoly import HermiteSystem, _grid_shapes, jet_gather, taylor_shift
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
    return ctx._weights(fn.coords, taylor_lift(ctx, s.dense()))


def taylor_lift(ctx, coeffs) -> np.ndarray:
    """Coordinates of the lift of the polynomial with dense coefficients
    ``coeffs``, or of each of a stack: one batched Taylor shift of the
    coefficients to the largest jet order, the path the lift compiled per
    coefficient shape replaced."""
    L = ctx.layout
    (rows, ks, ls), order_z, order_w = L.gather
    return taylor_shift(coeffs, L.point_z, L.point_w, order_z, order_w)[..., rows, ks, ls]


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


def jets_at(s: BiPoly, points, shapes) -> list:
    """The jet of ``s`` at each ``(z, w)`` point, of the matching shape:
    entry (k, l) is the z^k w^l coefficient of s shifted to the point,
    from one :func:`taylor_shift` to the largest order any shape needs."""
    if not shapes:
        return []
    index, order_z, order_w = jet_gather(shapes)
    zs, ws = [p[0] for p in points], [p[1] for p in points]
    flat = taylor_shift(s.dense(), zs, ws, order_z, order_w)[index]
    ends = np.cumsum([sh.size for sh in shapes])
    return [Jet(sh, part) for sh, part in zip(shapes, np.split(flat, ends[:-1]))]


def grid_jets(s: BiPoly, grid) -> dict:
    """The kind-b jets of ``s`` at every pair of a zero grid, keyed by the
    pair ``(za, zb)``, as :func:`kreincalc.interpolate_jets` reads them."""
    keys = [(za, zb) for (za, _), (zb, _) in grid.pairs()]
    return dict(zip(keys, jets_at(s, keys, _grid_shapes(grid))))

"""The uncompiled reference path of ``CalculusContext.apply``.

An interpolating polynomial in monomials, its remainder divided off the
definitizing pair, ``s(A, B)`` over monomial powers and the checked
``EmbeddingBundle.expand`` of a dense augmented integral: the path the
compiled maps of ``CalculusContext._compiled`` and the compiled lift
replaced, kept to check them. Beside it: the batched Taylor shift and the
jets of a polynomial at given points or on a zero grid read off it, the
interpolation of grid jets back to a polynomial in monomials, and division
with remainder against a pair ``a(z), b(w)``.

A jet is a ``(shape, coeffs)`` pair: a ``JetShape`` and its coefficient
array in that shape's order.
"""

import numpy as np

from kreincalc import (
    DEFAULT_TOL, BiPoly, CalculusFunction, DegenerateInputError, ShapeMismatchError
)
from kreincalc.bipoly import HermiteSystem, _grid_shapes, jet_gather, taylor_table
from kreincalc.spectral import _weights


def taylor_shift(coeffs, zs, ws, order_z: int, order_w: int) -> np.ndarray:
    """Shifted coefficients of one polynomial, or of a stack of them, at
    many points, batched.

    ``coeffs`` is a dense coefficient matrix (see :meth:`BiPoly.dense`) or a
    stack ``(..., Dz, Dw)`` of them; entry [..., p, k, l] of the result is
    the (z^k w^l) coefficient of s(z + zs[p], w + ws[p]) for k <= order_z,
    l <= order_w, that is ``einsum("pkK,...KL,plL->...pkl", Tz, coeffs, Tw)``
    over the Taylor tables.
    """
    C = np.asarray(coeffs, dtype=complex)
    Dz, Dw = C.shape[-2:]
    Tz = taylor_table(zs, Dz - 1, order_z)
    Tw = taylor_table(ws, Dw - 1, order_w)
    # one product for all points and polynomials, then the small contraction
    # over L by broadcasting: batched products of tiny matrices cost more
    left = (Tz.reshape(-1, Dz) @ C).reshape(C.shape[:-2] + (len(Tz), order_z + 1, Dw))
    return (left[..., None, :] * Tw[:, None, :, :]).sum(axis=-1)


def shifted(s: BiPoly, z0, w0) -> BiPoly:
    """Taylor shift: the polynomial (z, w) -> s(z + z0, w + w0), exactly."""
    C = s.dense()
    return BiPoly.from_dense(taylor_shift(C, [z0], [w0], C.shape[0] - 1, C.shape[1] - 1)[0])


def euclidean_reduce(s: BiPoly, a, b):
    """Write ``s = a(z) u + b(w) v + r`` with deg_z r < deg a, deg_w r < deg b.

    Division runs first against ``a(z)`` in z, then against ``b(w)`` in w;
    eliminated coefficients are deleted outright so the degree bounds on the
    remainder hold by construction. Real inputs give real outputs.
    """
    if a.is_zero() or b.is_zero():
        raise DegenerateInputError("cannot reduce against a zero polynomial")
    m, n = a.degree, b.degree
    am, bn = a.coeffs[-1], b.coeffs[-1]

    work = {kl: v for kl, v in s.items()}
    u = {}
    for k in range(max((kk for kk, _ in work), default=0), m - 1, -1):
        for (kk, l) in [kl for kl in work if kl[0] == k]:
            q = work.pop((k, l)) / am
            u[(k - m, l)] = u.get((k - m, l), 0j) + q
            for j in range(m):
                kl = (k - m + j, l)
                work[kl] = work.get(kl, 0j) - q * a.coeffs[j]

    v = {}
    for l in range(max((ll for _, ll in work), default=0), n - 1, -1):
        for (k, ll) in [kl for kl in work if kl[1] == l]:
            q = work.pop((k, l)) / bn
            v[(k, l - n)] = v.get((k, l - n), 0j) + q
            for j in range(n):
                kl = (k, l - n + j)
                work[kl] = work.get(kl, 0j) - q * b.coeffs[j]

    return BiPoly(u), BiPoly(v), BiPoly(work)


def hermite_solve(system: HermiteSystem, rhs) -> BiPoly:
    """The polynomial in monomials whose grid jets are ``rhs``: the
    system's centered coefficients, changed back to monomials exactly.

    Centered coefficients c give s(z, w) = c((z - mu_a)/rho_a, (w - mu_b)/rho_b):
    scale column K by rho**-K, then Taylor-shift by -mu.
    """
    if system.size == 0:
        return BiPoly()
    (mu_a, rho_a, m), (mu_b, rho_b, n) = system._centre
    back_a = taylor_table([-mu_a], m - 1, m - 1)[0] * rho_a ** -np.arange(m)
    back_b = taylor_table([-mu_b], n - 1, n - 1)[0] * rho_b ** -np.arange(n)
    centered = system.coefficients(rhs).reshape(m, n)
    return BiPoly.from_dense(back_a @ centered @ back_b.T)


def interpolate_jets(targets, grid, tol=DEFAULT_TOL) -> BiPoly:
    """The unique low-degree polynomial whose grid jets match ``targets``.

    ``targets`` maps grid pairs ``(za, zb)`` to kind-b jets of the matching
    shape. Solved through a :class:`HermiteSystem` of the grid, which raises
    :class:`ConditioningError` when the system is too ill-conditioned.
    """
    system = HermiteSystem(grid, tol)
    parts = []
    for ((za, _), (zb, _)), shape in zip(grid.pairs(), system.shapes):
        jet_shape, coeffs = targets[(za, zb)]
        if jet_shape != shape:
            raise ShapeMismatchError(f"jet at {(za, zb)} must have shape {shape}")
        parts.append(np.asarray(coeffs, dtype=complex))
    return hermite_solve(system, np.concatenate(parts) if parts else np.zeros(0, complex))


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
    return hermite_solve(HermiteSystem(ctx.cs.grid, ctx.tol), fn.coords[ctx.layout.grid_index])


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
    return list(zip(shapes, np.split(flat, ends[:-1])))


def grid_jets(s: BiPoly, grid) -> dict:
    """The kind-b jets of ``s`` at every pair of a zero grid, keyed by the
    pair ``(za, zb)``, as :func:`interpolate_jets` reads them."""
    keys = [(za, zb) for (za, _), (zb, _) in grid.pairs()]
    return dict(zip(keys, jets_at(s, keys, _grid_shapes(grid))))

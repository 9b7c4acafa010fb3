"""Real univariate and complex bivariate polynomials.

Provides the zero structure with multiplicities, exact jets of polynomials by
Taylor shifting, division with remainder against a pair ``a(z), b(w)``, the
jet-evaluation map on the zero grid of such a pair, and its interpolation
inverse on the space of remainders.

Every Taylor shift goes through one batched kernel, :func:`taylor_shift`: the
shifted coefficients of a dense coefficient matrix at many points at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from numpy.polynomial import polynomial as npoly

from .cluster import cluster_points, match_points
from .errors import ConditioningError, DegenerateInputError, ShapeMismatchError
from .jets import B_KIND, Jet, JetShape
from .tol import DEFAULT_TOL, Tolerances


class RealPoly:
    """Real polynomial with ascending coefficients, trimmed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        arr = np.atleast_1d(np.asarray(coeffs, dtype=float))
        arr = np.trim_zeros(arr, "b")
        if arr.size == 0:
            arr = np.zeros(1)
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    def __setattr__(self, name, value):
        raise AttributeError("RealPoly is immutable")

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def is_zero(self) -> bool:
        return self.coeffs.size == 1 and self.coeffs[0] == 0.0

    def __call__(self, x):
        return npoly.polyval(x, self.coeffs)

    def deriv(self, order: int = 1) -> "RealPoly":
        return RealPoly(npoly.polyder(self.coeffs, order))

    def __mul__(self, other):
        if isinstance(other, RealPoly):
            return RealPoly(npoly.polymul(self.coeffs, other.coeffs))
        return RealPoly(self.coeffs * float(other))

    __rmul__ = __mul__

    def of_matrix(self, M: np.ndarray) -> np.ndarray:
        """Evaluate at a square matrix by Horner's rule."""
        n = M.shape[0]
        out = np.eye(n, dtype=complex) * self.coeffs[-1]
        for c in self.coeffs[-2::-1]:
            out = out @ M + c * np.eye(n)
        return out

    def zeros(self, tol: Tolerances = DEFAULT_TOL):
        """All complex zeros with multiplicities, conjugate-paired.

        Companion-matrix roots clustered by single linkage; a cluster's
        multiplicity is its size, centroids near the real axis snap onto it,
        and nonreal clusters are symmetrized into exact conjugate pairs.
        Fragments of a k-fold zero scatter like ``noise**(1/k)``, beyond the
        flat radius for every k >= 2, and are merged by multiplicity (see
        :func:`_merge_by_multiplicity`): zeros closer than the scatter radius
        of their joint multiplicity are read as one multiple zero, so ``1``
        and ``1 + 1e-6`` come back as a double zero at ``1 + 5e-7``.
        """
        if self.is_zero():
            raise DegenerateInputError("zero polynomial has no zero set")
        if self.degree == 0:
            return []
        roots = npoly.polyroots(self.coeffs)
        scale = 1.0 + float(np.max(np.abs(roots)))
        radius = tol.cluster_radius(np.max(np.abs(roots)))
        # snap roots within the flat radius of the axis; a perturbed real
        # double root scatters further (about sqrt(noise) * scale), and its
        # conjugate fragments are joined by the k = 2 multiplicity merge
        roots = np.where(np.abs(roots.imag) <= radius, roots.real + 0j, roots)
        centers, labels = cluster_points(roots, radius)
        clusters = list(zip(centers.tolist(), np.bincount(labels).tolist()))
        clusters = _merge_by_multiplicity(clusters, scale)
        clusters = [
            (c.real + 0j, m) if abs(c.imag) <= radius else (c, m) for c, m in clusters
        ]
        return _symmetrize_conjugates(clusters, radius)

    def to_list(self):
        return [float(c) for c in self.coeffs]

    def __repr__(self):
        return f"RealPoly({self.to_list()})"


def _merge_by_multiplicity(clusters, scale):
    """Merge cluster fragments of multiple roots.

    A k-fold zero computed in floating point scatters like noise**(1/k), beyond
    the flat clustering radius for every k >= 2: a real double zero typically
    comes back as a conjugate pair about sqrt(noise) * scale off the axis. For
    each hypothesis k (largest first, down to k = 2) clusters within the
    scatter radius ``2 * noise**(1/k) * scale`` are grouped and merged only
    when the group holds at least k roots. Zeros closer than that radius are
    therefore read as one k-fold zero; simple zeros further apart than the
    k = 2 radius stay apart.
    """
    noise = 1e3 * np.finfo(float).eps
    total = sum(m for _, m in clusters)
    out = list(clusters)
    for k in range(total, 1, -1):
        radius = 2.0 * noise ** (1.0 / k) * scale
        centers, labels = cluster_points([c for c, _ in out], radius)
        if len(centers) == len(out):
            continue
        merged = []
        for g, size in enumerate(np.bincount(labels)):
            members = [out[i] for i in np.flatnonzero(labels == g)]
            mult = sum(m for _, m in members)
            if size > 1 and mult >= k:
                merged.append((sum(c * m for c, m in members) / mult, mult))
            else:
                merged.extend(members)
        out = merged
    return out


def _symmetrize_conjugates(clusters, radius):
    """Pin the partner of each upper half-plane zero onto its conjugate: the
    closest lower zero within ``2 * radius``, of the same multiplicity and
    claimed by no other upper zero."""
    out = list(clusters)
    upper = [i for i, (c, _) in enumerate(out) if c.imag > 0]
    lower = [j for j, (c, _) in enumerate(out) if c.imag < 0]
    hits = match_points(
        [np.conj(out[i][0]) for i in upper], [out[j][0] for j in lower], 2 * radius
    )
    for i, hit in zip(upper, hits):
        c, m = out[i]
        if hit is None or out[lower[hit]][1] != m or hits.count(hit) > 1:
            raise ConditioningError(
                f"no conjugate partner for zero {c:.6g} (multiplicity {m})"
            )
        out[lower[hit]] = (np.conj(c), m)
    return out


class BiPoly:
    """Complex polynomial in two variables, sparse over (z-degree, w-degree)."""

    __slots__ = ("_c",)

    def __init__(self, entries=None):
        c = {}
        for (k, l), v in dict(entries or {}).items():
            v = complex(v)
            if v != 0:
                c[(int(k), int(l))] = v
        object.__setattr__(self, "_c", c)

    def __setattr__(self, name, value):
        raise AttributeError("BiPoly is immutable")

    @classmethod
    def constant(cls, v) -> "BiPoly":
        return cls({(0, 0): v})

    @classmethod
    def variable(cls, name: str) -> "BiPoly":
        if name == "z":
            return cls({(1, 0): 1.0})
        if name == "w":
            return cls({(0, 1): 1.0})
        raise ValueError("variable must be 'z' or 'w'")

    @classmethod
    def from_univariate(cls, poly: RealPoly, var: str = "z") -> "BiPoly":
        if var == "z":
            return cls({(k, 0): c for k, c in enumerate(poly.coeffs)})
        return cls({(0, k): c for k, c in enumerate(poly.coeffs)})

    def items(self):
        return self._c.items()

    def __bool__(self):
        return bool(self._c)

    @property
    def degree_z(self) -> int:
        return max((k for k, _ in self._c), default=0)

    @property
    def degree_w(self) -> int:
        return max((l for _, l in self._c), default=0)

    def coeff(self, k, l) -> complex:
        return self._c.get((k, l), 0j)

    def __add__(self, other):
        c = dict(self._c)
        for kl, v in other._c.items():
            c[kl] = c.get(kl, 0j) + v
        return BiPoly(c)

    def __sub__(self, other):
        c = dict(self._c)
        for kl, v in other._c.items():
            c[kl] = c.get(kl, 0j) - v
        return BiPoly(c)

    def __neg__(self):
        return BiPoly({kl: -v for kl, v in self._c.items()})

    def __mul__(self, other):
        if isinstance(other, BiPoly):
            c = {}
            for (k1, l1), v1 in self._c.items():
                for (k2, l2), v2 in other._c.items():
                    kl = (k1 + k2, l1 + l2)
                    c[kl] = c.get(kl, 0j) + v1 * v2
            return BiPoly(c)
        return BiPoly({kl: v * complex(other) for kl, v in self._c.items()})

    __rmul__ = __mul__

    def __call__(self, z, w):
        z, w = complex(z), complex(w)
        return sum(v * z**k * w**l for (k, l), v in self._c.items()) + 0j

    def sharp(self) -> "BiPoly":
        """The involution s#(z, w) = conj(s(conj z, conj w)): conjugate coefficients."""
        return BiPoly({kl: np.conj(v) for kl, v in self._c.items()})

    def shifted(self, z0, w0) -> "BiPoly":
        """Taylor shift: the polynomial (z, w) -> s(z + z0, w + w0), exactly."""
        C = self.dense()
        return BiPoly.from_dense(
            taylor_shift(C, [z0], [w0], C.shape[0] - 1, C.shape[1] - 1)[0]
        )

    def jet_at(self, point, shape: JetShape) -> Jet:
        """Scaled partial derivatives at ``point``, arranged in ``shape``.

        Entry (k, l) is d^{k+l} s / (dz^k dw^l) / (k! l!) at the point, read
        off the Taylor-shifted coefficients; no numerical differentiation.
        """
        return jets_at(self, [point], [shape])[0]

    def dense(self) -> np.ndarray:
        """Coefficient matrix: entry [K, L] multiplies z^K w^L."""
        out = np.zeros((self.degree_z + 1, self.degree_w + 1), dtype=complex)
        for (k, l), v in self._c.items():
            out[k, l] = v
        return out

    @classmethod
    def from_dense(cls, coeffs) -> "BiPoly":
        """The polynomial with coefficient matrix ``coeffs`` (see :meth:`dense`)."""
        C = np.asarray(coeffs, dtype=complex)
        K, L = np.nonzero(C)
        return cls(dict(zip(zip(K.tolist(), L.tolist()), C[K, L].tolist())))

    def max_abs_coeff(self) -> float:
        return max((abs(v) for v in self._c.values()), default=0.0)

    def is_real(self, tol=0.0) -> bool:
        return all(abs(v.imag) <= tol for v in self._c.values())

    def to_list(self):
        return sorted(
            [[k, l, v.real, v.imag] for (k, l), v in self._c.items()]
        )

    @classmethod
    def from_list(cls, rows) -> "BiPoly":
        c = {}
        for k, l, re, im in rows:
            c[(int(k), int(l))] = c.get((int(k), int(l)), 0j) + complex(re, im)
        return cls(c)

    def __repr__(self):
        if not self._c:
            return "BiPoly(0)"
        terms = " + ".join(
            f"({v:.4g})z^{k}w^{l}" for (k, l), v in sorted(self._c.items())
        )
        return f"BiPoly({terms})"


def _binomials(degree: int) -> np.ndarray:
    """Pascal's triangle: entry [K, k] is C(K, k), zero for k > K."""
    out = np.zeros((degree + 1, degree + 1))
    out[:, 0] = 1.0
    for K in range(1, degree + 1):
        out[K, 1:] = out[K - 1, 1:] + out[K - 1, :-1]
    return out


def taylor_table(points, degree: int, order: int) -> np.ndarray:
    """T[p, k, K] = C(K, k) * z_p**(K - k) for k <= order, K <= degree.

    Entries with k > K are zero, so ``T[p] @ c`` maps the ascending
    coefficients ``c`` of a univariate polynomial of degree ``degree`` to its
    Taylor coefficients 0..order at ``points[p]``. Powers are cumulative
    products.
    """
    z = np.asarray(points, dtype=complex).reshape(-1)
    powers = np.ones((z.size, degree + 1), dtype=complex)
    if degree > 0:
        powers[:, 1:] = np.cumprod(np.broadcast_to(z[:, None], (z.size, degree)), axis=1)
    binom = _binomials(max(degree, order))[: degree + 1, : order + 1].T
    exponent = np.arange(degree + 1)[None, :] - np.arange(order + 1)[:, None]
    return powers[:, np.maximum(exponent, 0)] * binom


def taylor_shift(coeffs, zs, ws, order_z: int, order_w: int) -> np.ndarray:
    """Shifted coefficients of one polynomial at many points, batched.

    ``coeffs`` is a dense coefficient matrix (see :meth:`BiPoly.dense`);
    entry [p, k, l] of the result is the (z^k w^l) coefficient of
    s(z + zs[p], w + ws[p]) for k <= order_z, l <= order_w, that is
    ``einsum("pkK,KL,plL->pkl", Tz, coeffs, Tw)`` over the Taylor tables.
    """
    C = np.asarray(coeffs, dtype=complex)
    Tz = taylor_table(zs, C.shape[0] - 1, order_z)
    Tw = taylor_table(ws, C.shape[1] - 1, order_w)
    return (Tz @ C) @ Tw.transpose(0, 2, 1)


def jet_gather(shapes):
    """Where a :func:`taylor_shift` table holds the entries of each jet.

    Returns ``(index, order_z, order_w)``: shift to these orders, and
    ``table[index]`` lists the entries of point i's jet of ``shapes[i]`` in
    the shape's order, point after point.
    """
    rows, ks, ls = [], [], []
    for i, sh in enumerate(shapes):
        for k, l in sh.indices:
            rows.append(i)
            ks.append(k)
            ls.append(l)
    index = tuple(np.array(a, dtype=int) for a in (rows, ks, ls))
    return index, max(ks, default=0), max(ls, default=0)


def jets_at(s: BiPoly, points, shapes) -> list:
    """Jets of ``s`` at each ``(z, w)`` point with the matching shape.

    One batched :func:`taylor_shift` to the largest order any shape needs,
    then one gather of every shape's entries.
    """
    if not shapes:
        return []
    index, order_z, order_w = jet_gather(shapes)
    table = taylor_shift(
        s.dense(), [p[0] for p in points], [p[1] for p in points], order_z, order_w
    )
    flat = table[index]
    out, start = [], 0
    for sh in shapes:
        out.append(Jet(sh, flat[start:start + sh.size]))
        start += sh.size
    return out


def euclidean_reduce(s: BiPoly, a: RealPoly, b: RealPoly):
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


@dataclass(frozen=True)
class ZeroGrid:
    """Zeros-with-multiplicities of a pair of polynomials and their products."""

    a_zeros: tuple
    b_zeros: tuple

    @classmethod
    def from_polys(cls, a: RealPoly, b: RealPoly, tol: Tolerances = DEFAULT_TOL):
        return cls(tuple(a.zeros(tol)), tuple(b.zeros(tol)))

    @property
    def real_a(self):
        return tuple((z.real, m) for z, m in self.a_zeros if z.imag == 0.0)

    @property
    def real_b(self):
        return tuple((z.real, m) for z, m in self.b_zeros if z.imag == 0.0)

    def pairs(self):
        """All grid pairs ((za, ma), (zb, mb)) in deterministic order."""
        return [
            ((za, ma), (zb, mb))
            for za, ma in self.a_zeros
            for zb, mb in self.b_zeros
        ]

    def cross(self):
        """The pairs with at least one nonreal component."""
        return [
            ((za, ma), (zb, mb))
            for ((za, ma), (zb, mb)) in self.pairs()
            if za.imag != 0.0 or zb.imag != 0.0
        ]

    @property
    def total_a(self) -> int:
        return sum(m for _, m in self.a_zeros)

    @property
    def total_b(self) -> int:
        return sum(m for _, m in self.b_zeros)


def _grid_shapes(grid: ZeroGrid):
    return [JetShape(ma, mb, B_KIND) for (_, ma), (_, mb) in grid.pairs()]


def grid_jets(s: BiPoly, grid: ZeroGrid):
    """Holomorphic jets of ``s`` at every grid pair, keyed by the pair."""
    keys = [(za, zb) for (za, _), (zb, _) in grid.pairs()]
    return dict(zip(keys, jets_at(s, keys, _grid_shapes(grid))))


def hermite_matrix(grid: ZeroGrid):
    """Dense matrix of the jet-evaluation map on low-degree monomials.

    Row order follows ``grid.pairs()`` and each shape's index order; column
    (K, L) runs over the monomials z^K w^L with K < total_a, L < total_b.
    Returns ``(matrix, row_keys)`` where row_keys list ``(za, zb, k, l)``.
    The row of jet entry (k, l) at (za, zb) is the outer product of the
    Taylor-table rows ``Tz[k]`` and ``Tw[l]`` at that pair.
    """
    m, n = grid.total_a, grid.total_b
    pairs = grid.pairs()
    if not pairs:
        return np.zeros((0, m * n), dtype=complex), []
    (rows, ks, ls), order_z, order_w = jet_gather(_grid_shapes(grid))
    Tz = taylor_table([za for (za, _), _ in pairs], m - 1, order_z)
    Tw = taylor_table([zb for _, (zb, _) in pairs], n - 1, order_w)
    mat = Tz[rows, ks][:, :, None] * Tw[rows, ls][:, None, :]
    row_keys = [
        (pairs[i][0][0], pairs[i][1][0], k, l)
        for i, k, l in zip(rows.tolist(), ks.tolist(), ls.tolist())
    ]
    return mat.reshape(len(rows), m * n), row_keys


def _centered(zeros):
    vals = [z for z, _ in zeros]
    mu = complex(np.mean(vals))
    rho = max(1.0, max(abs(z - mu) for z in vals))
    return mu, rho


class HermiteSystem:
    """The jet-evaluation map of one zero grid, factored once.

    The matrix is built in a basis centered and scaled on the grid (much
    better conditioned than raw monomials), gated on ``tol.cond`` and LU
    factored; every :meth:`solve` is then one triangular solve and one exact
    change of basis back to monomials. Raises :class:`ConditioningError` when
    even the centered system is too ill-conditioned to trust (nearly
    coincident zeros).
    """

    def __init__(self, grid: ZeroGrid, tol: Tolerances = DEFAULT_TOL):
        self.shapes = tuple(_grid_shapes(grid))
        m, n = grid.total_a, grid.total_b
        self._lu = None
        if m == 0 or n == 0:
            return
        mu_a, rho_a = _centered(grid.a_zeros)
        mu_b, rho_b = _centered(grid.b_zeros)
        cgrid = ZeroGrid(
            tuple(((z - mu_a) / rho_a, mult) for z, mult in grid.a_zeros),
            tuple(((z - mu_b) / rho_b, mult) for z, mult in grid.b_zeros),
        )
        mat, row_keys = hermite_matrix(cgrid)
        cond = np.linalg.cond(mat)
        if not np.isfinite(cond) or cond > tol.cond:
            raise ConditioningError(
                f"interpolation grid condition number {cond:.2e} exceeds {tol.cond:.1e}"
            )
        self._lu = scipy.linalg.lu_factor(mat)
        self._row_scale = np.array([rho_a**k * rho_b**l for _, _, k, l in row_keys])
        # centered coefficients c give s(z, w) = c((z - mu_a)/rho_a, (w - mu_b)/rho_b):
        # scale column K by rho**-K, then Taylor-shift by -mu
        self._back_a = taylor_table([-mu_a], m - 1, m - 1)[0] * rho_a ** -np.arange(m)
        self._back_b = taylor_table([-mu_b], n - 1, n - 1)[0] * rho_b ** -np.arange(n)
        for arr in (self._row_scale, self._back_a, self._back_b):
            arr.setflags(write=False)

    def solve(self, rhs) -> BiPoly:
        """The polynomial whose grid jets have the coefficients ``rhs``.

        ``rhs`` concatenates the kind-b jet coefficients of every grid pair
        in ``grid.pairs()`` order (the row order of :func:`hermite_matrix`).
        """
        if self._lu is None:
            return BiPoly()
        sol = scipy.linalg.lu_solve(self._lu, np.asarray(rhs) * self._row_scale)
        centered = sol.reshape(self._back_a.shape[0], self._back_b.shape[0])
        return BiPoly.from_dense(self._back_a @ centered @ self._back_b.T)


def interpolate_jets(targets, grid: ZeroGrid, tol: Tolerances = DEFAULT_TOL) -> BiPoly:
    """The unique low-degree polynomial whose grid jets match ``targets``.

    ``targets`` maps grid pairs ``(za, zb)`` to kind-b jets of the matching
    shape. Solved through a :class:`HermiteSystem` of the grid, which raises
    :class:`ConditioningError` when the system is too ill-conditioned.
    """
    system = HermiteSystem(grid, tol)
    parts = []
    for ((za, _), (zb, _)), shape in zip(grid.pairs(), system.shapes):
        jet = targets[(za, zb)]
        if jet.shape != shape:
            raise ShapeMismatchError(f"jet at {(za, zb)} must have shape {shape}")
        parts.append(jet.coeffs)
    return system.solve(np.concatenate(parts) if parts else np.zeros(0, complex))

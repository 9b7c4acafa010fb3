"""Real univariate and complex bivariate polynomials.

Provides the zero structure with multiplicities, the Taylor tables of powers
at many points, and the jet-evaluation map on the zero grid of a pair
``a(z), b(w)``, factored once for interpolation on the space of remainders.

Every jet of a polynomial is read off Taylor tables (:func:`taylor_table`):
the jets of the monomials at many points are one gathered outer product of
table rows, :func:`jet_rows`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np
import scipy.linalg
from numpy.polynomial import polynomial as npoly
from scipy.linalg.lapack import dgeev, dgels, dgesdd

from .errors import ConditioningError, DegenerateInputError
from .jets import B_KIND, JetShape
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
        """Evaluate at a square matrix by Horner's rule.

        The first step ``(c_d I) M`` is taken as ``c_d M``: the product with
        the identity adds only exact zeros.
        """
        M = np.asarray(M, dtype=complex)
        c = self.coeffs
        if c.size == 1:
            return np.eye(M.shape[0], dtype=complex) * c[0]
        eye = np.eye(M.shape[0])
        out = c[-1] * M + c[-2] * eye
        for ck in c[-3::-1]:
            out = out @ M + ck * eye
        return out

    def zeros(self):
        """All complex zeros with multiplicities, sorted by (real, imag).

        The k-fold zeros are the simple zeros of the k-th :func:`square_free`
        factor, the eigenvalues of its real companion matrix: real ones have
        imaginary part exactly 0.0, nonreal ones come in exact conjugate
        pairs. Newton steps on ``p^(k-1)``, where they are simple, polish
        them. Zeros read as one only when ``p`` cannot tell them apart: ``1``
        and ``1 + 1e-6`` are two simple zeros.
        """
        if self.is_zero():
            raise DegenerateInputError("zero polynomial has no zero set")
        derivs = [self.coeffs[::-1].tolist()]  # descending coefficients of p^(j)
        for j in range(self.degree, 0, -1):
            derivs.append([c * (j - i) for i, c in enumerate(derivs[-1][:-1])])
        out = []
        for k, w in square_free(self.coeffs):
            eig = dgeev(npoly.polycompanion(w), compute_vl=0, compute_vr=0)
            for z in [float(x) if y == 0 else complex(x, y) for x, y in zip(*eig[:2]) if y >= 0]:
                for _ in range(3):
                    f, df = [reduce(lambda a, c: a * z + c, d, 0.0) for d in derivs[k - 1:k + 1]]
                    z -= f / df if df else 0.0
                out += [(complex(z), k)] if isinstance(z, float) else [(z, k), (z.conjugate(), k)]
        return sorted(out, key=lambda zm: (zm[0].real, zm[0].imag))

    def to_list(self):
        return [float(c) for c in self.coeffs]

    def __repr__(self):
        return f"RealPoly({self.to_list()})"


# Sylvester singular values at or below GCD_THETA times the largest read as zero
GCD_THETA = 100 * np.finfo(float).eps


def _convolution(f, cols) -> np.ndarray:
    """The matrix of ``g -> f g`` on polynomials g with ``cols`` coefficients."""
    out = np.zeros((f.size + cols - 1, cols))
    for j in range(cols):
        out[j:j + f.size, j] = f
    return out


def _quotient(f, g) -> np.ndarray:
    """f / g for a divisor g of f, by least squares."""
    cols = f.size - g.size + 1
    return dgels(_convolution(g, cols), f)[1][:cols]


def sylvester_spectrum(a, b) -> np.ndarray:
    """Singular values of the Sylvester matrix ``[C(a) | C(b)]`` over the largest."""
    S = np.hstack([_convolution(a, b.size - 1), _convolution(b, a.size - 1)])
    s = dgesdd(S, compute_uv=0)[1]
    return s / s[0]


def square_free(p) -> list:
    """``(k, w_k)`` for each k where ``w_k``, the product of the k-fold
    zeros' factors, is not constant (Zeng, Math. Comp. 74, 2005).

    The chain ``u_0 = p``, ``u_k = gcd(u_{k-1}, u_{k-1}')`` has cofactors
    ``v_k = u_{k-1} / u_k`` and ``w_k = v_k / v_{k+1}``. For unit-norm ``u``
    and ``u'``, the GCD degree d is the number of :func:`sylvester_spectrum`
    values at or below :data:`GCD_THETA`, and ``v = u / gcd`` is the head of
    the null vector of ``[C(u') | -C(u)]``, as ``u' v - u (u' / gcd) = 0``.
    """
    u, cofactors = np.asarray(p, dtype=float), []
    while u.size > 1:
        n, a = u.size - 1, u / math.sqrt(u.dot(u))
        b = a[1:] * np.arange(1, a.size)
        b /= math.sqrt(b.dot(b))
        d = min(int(np.count_nonzero(sylvester_spectrum(a, b) <= GCD_THETA)), n - 1)
        if d == 0:
            cofactors.append(a)
            break
        S = np.hstack([_convolution(b, n - d + 1), -_convolution(a, n - d)])
        cofactors.append(dgesdd(S, full_matrices=0)[2][-1, : n - d + 1])
        u = _quotient(a, cofactors[-1])
    factors = map(_quotient, cofactors, cofactors[1:] + [np.ones(1)])
    return [(k, w) for k, w in enumerate(factors, 1) if w.size > 1]


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


def jet_gather(shapes):
    """Which Taylor coefficients make up each jet.

    Returns ``(index, order_z, order_w)``: Taylor tables to these orders hold
    every entry, and for ``index = (rows, ks, ls)`` entry e of the jets of
    ``shapes``, point after point in each shape's order, is the
    ``(ks[e], ls[e])`` coefficient at point ``rows[e]``.
    """
    rows, ks, ls = [], [], []
    for i, sh in enumerate(shapes):
        for k, l in sh.indices:
            rows.append(i)
            ks.append(k)
            ls.append(l)
    index = tuple(np.array(a, dtype=int) for a in (rows, ks, ls))
    return index, max(ks, default=0), max(ls, default=0)


def jet_rows(Tz, Tw, index) -> np.ndarray:
    """The jets of the monomials z^K w^L at the points of two Taylor tables
    (:func:`taylor_table`): row e, entry ``(ks[e], ls[e])`` at point
    ``rows[e]`` of a :func:`jet_gather` index, is the outer product of the
    rows ``Tz[rows[e], ks[e]]`` and ``Tw[rows[e], ls[e]]``, so column
    ``K * Dw + L`` is the monomial's."""
    rows, ks, ls = index
    out = Tz[rows, ks][:, :, None] * Tw[rows, ls][:, None, :]
    return out.reshape(len(rows), Tz.shape[-1] * Tw.shape[-1])


@dataclass(frozen=True)
class ZeroGrid:
    """Zeros-with-multiplicities of a pair of polynomials and their products."""

    a_zeros: tuple
    b_zeros: tuple

    @classmethod
    def from_polys(cls, a: RealPoly, b: RealPoly):
        return cls(tuple(a.zeros()), tuple(b.zeros()))

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


def _centered(zeros):
    vals = [z for z, _ in zeros]
    mu = complex(np.mean(vals))
    rho = max(1.0, max(abs(z - mu) for z in vals))
    return mu, rho


class HermiteSystem:
    """The jet-evaluation map of one zero grid, factored once.

    The matrix is built in a basis centered and scaled on the grid (much
    better conditioned than raw monomials), gated on ``tol.cond`` and LU
    factored; every :meth:`coefficients` is then one triangular solve per
    right-hand side. Raises :class:`ConditioningError` when even the
    centered system is too ill-conditioned to trust (nearly coincident
    zeros).

    Basis polynomial ``K * total_b + L`` is ``((z - mu_a)/rho_a)**K
    ((w - mu_b)/rho_b)**L``; :meth:`coefficients` solves in that basis and
    :meth:`jet_matrix`, :meth:`basis_at` evaluate it elsewhere, so a caller
    can turn the solve into fixed linear maps.
    """

    def __init__(self, grid: ZeroGrid, tol: Tolerances = DEFAULT_TOL):
        self.shapes = tuple(_grid_shapes(grid))
        m, n = grid.total_a, grid.total_b
        self._lu = None
        self.size = 0
        if m == 0 or n == 0:
            return
        mu_a, rho_a = _centered(grid.a_zeros)
        mu_b, rho_b = _centered(grid.b_zeros)
        # the grid matrix: the jets of the monomials at the centered grid
        # pairs, rows in grid.pairs() order and each shape's index order
        pairs = grid.pairs()
        index, order_z, order_w = jet_gather(self.shapes)
        Tz = taylor_table([(za - mu_a) / rho_a for (za, _), _ in pairs], m - 1, order_z)
        Tw = taylor_table([(zb - mu_b) / rho_b for _, (zb, _) in pairs], n - 1, order_w)
        mat = jet_rows(Tz, Tw, index)
        cond = np.linalg.cond(mat)
        if not np.isfinite(cond) or cond > tol.cond:
            raise ConditioningError(
                f"interpolation grid condition number {cond:.2e} exceeds {tol.cond:.1e}"
            )
        self._lu = scipy.linalg.lu_factor(mat)
        self._getrs = scipy.linalg.get_lapack_funcs("getrs", self._lu)
        self.size = m * n
        self._centre = ((mu_a, rho_a, m), (mu_b, rho_b, n))
        # a jet entry (k, l) in the centered variables is rho_a**k rho_b**l
        # times the entry in (z, w)
        ks, ls = index[1].tolist(), index[2].tolist()
        self._row_scale = np.array([rho_a**k * rho_b**l for k, l in zip(ks, ls)])
        self._row_scale.setflags(write=False)

    def coefficients(self, rhs) -> np.ndarray:
        """The coefficients in the centered basis of the interpolant whose
        grid jets are ``rhs``, the kind-b jet entries of every grid pair in
        ``grid.pairs()`` order: a vector of :attr:`size` coefficients, or
        one column of them for each column of a 2-D ``rhs``."""
        rhs = np.asarray(rhs)
        if self._lu is None:
            return np.zeros(rhs.shape, dtype=complex)
        if not np.isfinite(rhs).all():
            raise ValueError("array must not contain infs or NaNs")
        # LAPACK getrs called directly: scipy.linalg.lu_solve's validation
        # costs more than the solve of a grid system. One call per column:
        # a column's solution then does not depend on the columns beside it
        scaled = (rhs.T * self._row_scale).reshape(-1, self.size)
        cols = [self._getrs(*self._lu, col) for col in scaled]
        if any(info for _, info in cols):
            raise np.linalg.LinAlgError("interpolation solve failed in getrs")
        return np.array([sol for sol, _ in cols]).T.reshape(rhs.shape)

    def jet_matrix(self, zs, ws, gather) -> np.ndarray:
        """The map from :meth:`coefficients` to jet entries at the points
        ``(zs[p], ws[p])``: row e is the ``(ks[e], ls[e])`` Taylor coefficient
        at point ``rows[e]``, for a :func:`jet_gather` triple
        ``((rows, ks, ls), order_z, order_w)``.

        The Taylor coefficient k of ``((z - mu)/rho)**K`` at z is
        ``C(K, k) ((z - mu)/rho)**(K - k) / rho**k``.
        """
        index, order_z, order_w = gather
        if self._lu is None:
            return np.zeros((len(index[0]), 0), dtype=complex)
        Tz, Tw = (
            taylor_table((np.asarray(pts, dtype=complex) - mu) / rho, deg - 1, order)
            * rho ** -np.arange(order + 1)[:, None]
            for pts, (mu, rho, deg), order in zip((zs, ws), self._centre, (order_z, order_w))
        )
        return jet_rows(Tz, Tw, index)

    def basis_at(self, A, B) -> np.ndarray:
        """Every basis polynomial at a commuting matrix pair: a ``(size, d, d)``
        stack of the products of the centered powers ``((A - mu_a)/rho_a)**K``
        and ``((B - mu_b)/rho_b)**L``."""
        d = A.shape[0]
        if self._lu is None:
            return np.zeros((0, d, d), dtype=complex)
        Pa, Pb = (
            matrix_powers((M - mu * np.eye(d)) / rho, deg)
            for M, (mu, rho, deg) in zip((A, B), self._centre)
        )
        # the products with a zeroth power, the identity, are the other factor
        out = np.empty((len(Pa), len(Pb), d, d), dtype=complex)
        out[0] = Pb
        out[1:, 0] = Pa[1:]
        out[1:, 1:] = Pa[1:, None] @ Pb[None, 1:]
        return out.reshape(self.size, d, d)


def matrix_powers(M, count: int) -> np.ndarray:
    """M^0 .. M^(count - 1) of a square matrix, stacked; M^1 is M itself,
    not a product with the identity."""
    pows = [np.eye(M.shape[0], dtype=complex), M]
    while len(pows) < count:
        pows.append(pows[-1] @ M)
    return np.array(pows[:max(count, 1)], dtype=complex)

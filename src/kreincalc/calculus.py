"""Functions on the spectrum-plus-critical-points domain and the map from
such functions to operators on the Krein space.

A function assigns complex values to noncritical spectral points, overflow
jets (kind a) to critical points, and box jets (kind b) to the nonreal zero
pairs of the definitizing polynomials. Applying a function decomposes it as an
interpolating polynomial plus a remainder divided off the definitizing pair,
integrates the remainder against the spectral measure with contraction-
weighted critical atoms, and transports the result back to the Krein space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial import polynomial as npoly

from .bipoly import BiPoly, HermiteSystem, RealPoly, ZeroGrid, jet_gather, taylor_shift
from .cluster import cluster_points, distinct_points, match_points
from .embed import EmbeddingBundle, build_bundle
from .errors import (
    BoundaryError,
    DomainMismatchError,
    NotInIdealError,
    NotInvertibleError,
    ShapeMismatchError,
)
from .jets import A_KIND, B_KIND, Jet, JetShape, convolve, invert
from .krein import DefinitizablePair
from .spectral import SpectralData, augmented_integral, diagonalize, snap_eigenvalues
from .tol import fro


# -- regions ----------------------------------------------------------------


@dataclass(frozen=True)
class Disk:
    center: complex
    radius: float

    def contains(self, z) -> bool:
        return abs(complex(z) - self.center) <= self.radius

    def boundary_distance(self, z) -> float:
        return abs(abs(complex(z) - self.center) - self.radius)

    def to_dict(self):
        return {
            "type": "disk",
            "center": [self.center.real, self.center.imag],
            "radius": self.radius,
        }


@dataclass(frozen=True)
class Rect:
    x: tuple
    y: tuple

    def contains(self, z) -> bool:
        z = complex(z)
        return self.x[0] <= z.real <= self.x[1] and self.y[0] <= z.imag <= self.y[1]

    def boundary_distance(self, z) -> float:
        z = complex(z)
        dx = max(self.x[0] - z.real, z.real - self.x[1])
        dy = max(self.y[0] - z.imag, z.imag - self.y[1])
        if dx <= 0 and dy <= 0:
            return min(-dx, -dy)
        return math.hypot(max(dx, 0.0), max(dy, 0.0))

    def to_dict(self):
        return {"type": "rect", "x": list(self.x), "y": list(self.y)}


@dataclass(frozen=True)
class RegionUnion:
    """Union of regions; boundary distances assume the parts are disjoint."""

    parts: tuple

    def contains(self, z) -> bool:
        return any(p.contains(z) for p in self.parts)

    def boundary_distance(self, z) -> float:
        return min(p.boundary_distance(z) for p in self.parts)


# what malformed file content raises while it is read
_MALFORMED = (AttributeError, KeyError, IndexError, TypeError, ValueError)


def _read(what: str, parse, value):
    """``parse(value)``, reporting malformed file content as DomainMismatchError."""
    try:
        return parse(value)
    except _MALFORMED as exc:
        raise DomainMismatchError(f"malformed {what}: {value!r:.120}") from exc


def _complex(pair) -> complex:
    re, im = pair
    return complex(re, im)


def _interval(bounds) -> tuple:
    lo, hi = bounds
    return float(lo), float(hi)


def _zero_pair(zw) -> tuple:
    z, w = zw
    return _complex(z), _complex(w)


def _point(at):
    """A critical point ``[re, im]`` or a zero pair ``[[re, im], [re, im]]``."""
    return _zero_pair(at) if isinstance(at[0], (list, tuple)) else _complex(at)


def region_from_dict(d: dict):
    """A disk or rectangle from its file form; malformed content raises
    :class:`DomainMismatchError`."""
    try:
        kind = d.get("type")
        if kind == "disk":
            return Disk(_complex(d["center"]), float(d["radius"]))
        if kind == "rect":
            return Rect(_interval(d["x"]), _interval(d["y"]))
    except _MALFORMED as exc:
        raise DomainMismatchError(f"malformed region: {d!r:.120}") from exc
    raise DomainMismatchError(f"unknown region type {kind!r}")


# -- critical set -----------------------------------------------------------


@dataclass(frozen=True)
class CritPoint:
    """A sum of real zeros of the definitizing pair, with its jet shape."""

    value: complex
    shape: JetShape
    spectral: bool
    in_sigma_n: bool


@dataclass(frozen=True)
class ZiPoint:
    """A nonreal zero pair with its jet shape and conjugate partner index."""

    zw: tuple
    shape: JetShape
    partner: int
    in_support: bool

    @property
    def location(self) -> complex:
        """The complex point xi + i*eta this pair contributes to spectra."""
        return self.zw[0] + 1j * self.zw[1]


@dataclass(frozen=True)
class CriticalSet:
    """Domain data of the function class for one instance: the zero grid of
    the definitizing pair ``(p, q)`` and the points a function lives on."""

    grid: ZeroGrid
    noncritical: tuple
    crit: tuple
    zi: tuple
    sigma_n: tuple
    radius: float
    p: RealPoly
    q: RealPoly

    @property
    def crit_values(self):
        return tuple(c.value for c in self.crit)

    @cached_property
    def layout(self) -> "Layout":
        return Layout(self)

    def locate(self, points, shapes=None) -> list:
        """Layout indices of the jets at ``points``: each is matched to the
        closest critical point, or as a ``(z, w)`` tuple to the closest nonreal
        zero pair, within the cluster radius; with ``shapes``, each jet must
        have its shape."""
        is_pair = [isinstance(at, tuple) for at in points]
        crit_at = [at for at, pair in zip(points, is_pair) if not pair]
        zi_at = [at for at, pair in zip(points, is_pair) if pair]
        crit = iter(match_points(crit_at, self.crit_values, self.radius))
        zi = iter(match_points(zi_at, [pt.zw for pt in self.zi], self.radius))
        out = []
        for at, pair, shape in zip(points, is_pair, shapes or [None] * len(points)):
            i = next(zi if pair else crit)
            if i is None:
                kind = "a nonreal zero pair" if pair else "a critical point"
                raise DomainMismatchError(f"{at if pair else complex(at)} is not {kind}")
            j = len(self.crit) + i if pair else i
            expected = self.layout.shapes[j]
            if shape is not None and shape != expected:
                raise ShapeMismatchError(f"jet at {at} must have shape {expected}")
            out.append(j)
        return out

    def jet_point(self, j: int):
        """``("critical point", value)`` or ``("zero pair", (z, w))`` for the
        layout's jet ``j``."""
        if j < len(self.crit):
            return "critical point", self.crit[j].value
        return "zero pair", self.zi[j - len(self.crit)].zw

    def support_values(self):
        """The sigma_N point set: spectrum plus surviving critical/zi points,
        the first of any points within the cluster radius standing for them."""
        pts = list(self.noncritical)
        pts += [c.value for c in self.crit if c.spectral or c.in_sigma_n]
        pts += [pt.location for pt in self.zi if pt.in_support]
        out = [pts[i] for i in distinct_points(pts, self.radius)]
        return tuple(sorted(out, key=lambda z: (z.real, z.imag)))


def _zi_canonical(pt: ZiPoint) -> complex:
    """Representative location shared by both members of a conjugate pair."""
    xi, eta = pt.zw
    if (xi.imag, eta.imag) >= (-xi.imag, -eta.imag):
        return pt.location
    return np.conj(xi) + 1j * np.conj(eta)


class Layout:
    """The coordinate vector of a function over one critical set, and the
    per-point constants the calculus reads off it.

    The vector holds the ``nvalues`` noncritical values, then the entries of
    every critical jet, then those of every zero-pair jet. Jet ``j`` (critical
    points first) has shape ``shapes[j]``, occupies ``segment(j)`` and has its
    ``(0, 0)`` entry at ``unit[j]``. Every array is read-only.
    """

    def __init__(self, cs: CriticalSet):
        ncrit = len(cs.crit)
        shapes = [c.shape for c in cs.crit] + [pt.shape for pt in cs.zi]
        keys = [(c.value.real, c.value.imag) for c in cs.crit] + [pt.zw for pt in cs.zi]
        self.nvalues = len(cs.noncritical)
        self.shapes = tuple(shapes)
        sizes = [sh.size for sh in shapes]
        self.offsets = self.nvalues + np.concatenate([[0], np.cumsum(sizes)]).astype(int)
        self.size = int(self.offsets[-1])
        self.unit = self.offsets[:-1] + np.array([sh.position(0, 0) for sh in shapes], int)
        # jets over sigma_N: critical points in the spectrum, supported pairs
        self.supported = np.array(
            [c.spectral or c.in_sigma_n for c in cs.crit] + [pt.in_support for pt in cs.zi],
            dtype=bool,
        )
        # sharp reads each pair's jet off its conjugate partner
        identity = np.arange(self.size)
        self.partner = identity.copy()
        for i, pt in enumerate(cs.zi):
            self.partner[self.segment(ncrit + i)] = identity[self.segment(ncrit + pt.partner)]
        # the entries of the jets off sigma_N; those of zero pairs cannot
        # influence an applied function
        self.off_support = self.nvalues + np.flatnonzero(np.repeat(~self.supported, sizes))
        self.pairs_off = self.off_support[self.off_support >= self.offsets[ncrit]]
        # the entries the interpolant matches and the remainder must cancel:
        # the box of a critical jet (a prefix of it), all of a zero-pair jet
        box = {
            key: np.arange(start, start + sh.box().size)
            for key, sh, start in zip(keys, shapes, self.offsets)
        }
        self.ideal = np.zeros(self.size, dtype=bool)
        for entries in box.values():
            self.ideal[entries] = True
        # grid pairs key real zeros as complex, equal to the float keys above
        self.grid_index = np.concatenate(
            [box[(za, zb)] for (za, _), (zb, _) in cs.grid.pairs()] or [np.zeros(0, int)]
        )
        self.noncritical = np.array(cs.noncritical, dtype=complex)
        self.jet_z = np.array([k[0] for k in keys], dtype=complex)
        self.jet_w = np.array([k[1] for k in keys], dtype=complex)
        self.gather = jet_gather(shapes)
        # remainder constants: p(Re z) + q(Im z) at the noncritical points; at
        # each critical spectral point x + iy with jet shape (m, n), the
        # overflow entries (m, 0), (0, n) and the factors m!/p^(m)(x),
        # n!/q^(n)(y) that turn them into the contraction-weighted pair
        p, q = cs.p, cs.q
        self.denom = p(self.noncritical.real) + q(self.noncritical.imag)
        over = [(j, c) for j, c in enumerate(cs.crit) if c.spectral]
        self.overflow_values = tuple(c.value for _, c in over)
        self.overflow = np.array([
            [self.offsets[j] + c.shape.position(c.shape.m, 0),
             self.offsets[j] + c.shape.position(0, c.shape.n)] for j, c in over
        ], dtype=int).reshape(-1, 2)
        self.overflow_scale = np.array([
            [math.factorial(c.shape.m) / p.deriv(c.shape.m)(c.value.real),
             math.factorial(c.shape.n) / q.deriv(c.shape.n)(c.value.imag)] for _, c in over
        ]).reshape(-1, 2)
        for arr in (self.offsets, self.unit, self.supported, self.partner, self.off_support,
                    self.pairs_off, self.ideal, self.grid_index, self.noncritical,
                    self.jet_z, self.jet_w, *self.gather[0], self.denom, self.overflow,
                    self.overflow_scale):
            arr.setflags(write=False)

    def segment(self, j: int) -> slice:
        return slice(self.offsets[j], self.offsets[j + 1])


# -- functions --------------------------------------------------------------


class CalculusFunction:
    """A member of the function class: one coordinate vector over a
    CriticalSet, laid out by its :class:`Layout`.

    Membership needs no growth constraint here: the domain is finite, every
    point is isolated, and boundedness is automatic, so any assignment of
    values and correctly-shaped jets is admissible.
    """

    __slots__ = ("cs", "coords")

    def __init__(self, cs: CriticalSet, coords):
        coords = np.array(coords, dtype=complex).reshape(-1)
        if coords.size != cs.layout.size:
            raise DomainMismatchError(f"expected {cs.layout.size} coordinates, got {coords.size}")
        coords.setflags(write=False)
        object.__setattr__(self, "cs", cs)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError("CalculusFunction is immutable")

    @property
    def values(self) -> np.ndarray:
        """The values at the noncritical spectral points."""
        return self.coords[: self.cs.layout.nvalues]

    @property
    def crit_jets(self) -> tuple:
        return self._jets(range(len(self.cs.crit)))

    @property
    def zi_jets(self) -> tuple:
        return self._jets(range(len(self.cs.crit), len(self.cs.layout.shapes)))

    def _jets(self, indices) -> tuple:
        L = self.cs.layout
        return tuple(Jet(L.shapes[j], self.coords[L.segment(j)]) for j in indices)

    def _check_domain(self, other):
        if self.cs is not other.cs:
            raise DomainMismatchError("functions live over different critical sets")

    def __add__(self, other):
        self._check_domain(other)
        return CalculusFunction(self.cs, self.coords + other.coords)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, other):
        if not isinstance(other, CalculusFunction):
            return CalculusFunction(self.cs, self.coords * complex(other))
        self._check_domain(other)
        L = self.cs.layout
        a, b = self.coords, other.coords
        out = a * b
        for j, shape in enumerate(L.shapes):
            seg = L.segment(j)
            out[seg] = convolve(shape, a[seg], b[seg])
        return CalculusFunction(self.cs, out)

    __rmul__ = __mul__

    def sharp(self) -> "CalculusFunction":
        """The involution: conjugate every coordinate, swapping the jets of
        conjugate zero pairs."""
        return CalculusFunction(self.cs, self.coords.conj()[self.cs.layout.partner])

    def inverse(self, abs_tol: float = 1e-12) -> "CalculusFunction":
        """Pointwise reciprocal; every value and jet must be invertible."""
        cs, L = self.cs, self.cs.layout
        values = self.values
        small = np.flatnonzero(np.abs(values) <= abs_tol)
        if small.size:
            z = cs.noncritical[small[0]]
            raise NotInvertibleError(f"function vanishes at spectral point {z}", point=z)
        out = np.empty(L.size, dtype=complex)
        out[: L.nvalues] = 1.0 / values
        for j, shape in enumerate(L.shapes):
            seg = L.segment(j)
            try:
                out[seg] = invert(shape, self.coords[seg], abs_tol)
            except NotInvertibleError as exc:
                label, point = cs.jet_point(j)
                raise NotInvertibleError(
                    f"jet at {label} {point} is not invertible", point=point
                ) from exc
        return CalculusFunction(cs, out)

    def norm(self) -> float:
        return float(np.abs(self.coords).max(initial=0.0))


@dataclass(frozen=True)
class InvertibilityReport:
    invertible: bool
    reason: str
    min_modulus: float
    certificate_residual: float = float("nan")


# -- the calculus -----------------------------------------------------------


class CalculusContext:
    """Everything needed to evaluate functions of one definitizable operator.

    Built once per instance: the embedding bundle, the spectral data of the
    transferred operator (eigenvalues snapped onto matching critical points),
    the zero grid of the definitizing pair, and the resulting domain with its
    coordinate layout. The factored interpolation system and the powers of
    ``A`` and ``B`` are built on first use and kept.
    """

    def __init__(self, pair: DefinitizablePair, bundle: EmbeddingBundle,
                 spectral: SpectralData, cs: CriticalSet):
        self.pair = pair
        self.bundle = bundle
        self.spectral = spectral
        self.cs = cs
        self.layout = cs.layout
        self._interpolation = None
        self._powers = {}

    @classmethod
    def build(cls, pair: DefinitizablePair) -> "CalculusContext":
        tol = pair.space.tol
        bundle = build_bundle(pair)
        theta_n = bundle.compress(pair.N)
        data = diagonalize(theta_n, tol)

        grid = ZeroGrid.from_polys(pair.p, pair.q, tol)
        crit_pairs = [
            (x, mx, y, my) for x, mx in grid.real_a for y, my in grid.real_b
        ]
        crit_values = [complex(x, y) for x, _, y, _ in crit_pairs]

        mags = [abs(v) for v in data.eigenvalues] + [abs(v) for v in crit_values]
        mags += [float(np.linalg.norm(pair.N, 2))]
        radius = tol.cluster_radius(max(mags, default=0.0))

        data = snap_eigenvalues(data, crit_values, radius) if crit_values else data
        exact = match_points(data.eigenvalues, crit_values, 0.0)
        noncrit = tuple(ev for ev, hit in zip(data.eigenvalues, exact) if hit is None)

        centers, _ = cluster_points(np.linalg.eigvals(pair.N), radius)
        sigma_n = tuple(
            c if hit is None else crit_values[hit]
            for c, hit in zip(centers.tolist(), match_points(centers, crit_values, radius))
        )

        spectral_set = set(data.eigenvalues)
        crit = tuple(
            CritPoint(
                value=v,
                shape=JetShape(mx, my, A_KIND),
                spectral=v in spectral_set,
                in_sigma_n=hit is not None,
            )
            for v, (x, mx, y, my), hit in zip(
                crit_values, crit_pairs, match_points(crit_values, sigma_n, radius)
            )
        )

        cross = grid.cross()
        zw = np.array([(za, zb) for (za, _), (zb, _) in cross], dtype=complex).reshape(-1, 2)
        partners = match_points(zw.conj(), zw, radius)
        # a pair is in the support when its location xi + i*eta and that of
        # its conjugate pair both lie in sigma(N)
        both = np.concatenate([zw, zw.conj()])
        hits = match_points(both[:, 0] + 1j * both[:, 1], sigma_n, radius)
        zi = []
        for i, ((za, ma), (zb, mb)) in enumerate(cross):
            if partners[i] is None:
                raise DomainMismatchError(
                    f"nonreal zero pair {(za, zb)} lacks its conjugate partner"
                )
            zi.append(
                ZiPoint(
                    zw=(za, zb),
                    shape=JetShape(ma, mb, B_KIND),
                    partner=partners[i],
                    in_support=hits[i] is not None and hits[len(cross) + i] is not None,
                )
            )

        cs = CriticalSet(
            grid=grid,
            noncritical=noncrit,
            crit=crit,
            zi=tuple(zi),
            sigma_n=sigma_n,
            radius=radius,
            p=pair.p,
            q=pair.q,
        )
        return cls(pair, bundle, data, cs)

    @property
    def space(self):
        return self.pair.space

    @property
    def tol(self):
        return self.pair.space.tol

    # -- function constructors ------------------------------------------

    def zero(self) -> CalculusFunction:
        return CalculusFunction(self.cs, np.zeros(self.layout.size, dtype=complex))

    def one(self) -> CalculusFunction:
        L = self.layout
        coords = np.zeros(L.size, dtype=complex)
        coords[: L.nvalues] = 1.0
        coords[L.unit] = 1.0
        return CalculusFunction(self.cs, coords)

    def lift(self, s: BiPoly) -> CalculusFunction:
        """A two-variable polynomial as a member of the function class.

        Scalar values are s(Re z, Im z); critical points carry the full
        overflow jet of that restriction, nonreal pairs the holomorphic jet.
        """
        return CalculusFunction(self.cs, self._lift_coords(s))

    def _lift_coords(self, s: BiPoly) -> np.ndarray:
        """Coordinates of ``lift(s)``: a vectorized evaluation at the
        noncritical points and one batched Taylor shift at all others."""
        L = self.layout
        C = s.dense()
        nc = L.noncritical
        values = npoly.polyval2d(nc.real, nc.imag, C).astype(complex)
        if not L.shapes:
            return values
        index, order_z, order_w = L.gather
        table = taylor_shift(C, L.jet_z, L.jet_w, order_z, order_w)
        return np.concatenate([values, table[index]])

    def delta(self, at, jet: Jet) -> CalculusFunction:
        """The function equal to ``jet`` at one critical/pair point, zero elsewhere."""
        L = self.layout
        coords = np.zeros(L.size, dtype=complex)
        coords[L.segment(self.cs.locate([at], [jet.shape])[0])] = jet.coeffs
        return CalculusFunction(self.cs, coords)

    def indicator(self, region, check_boundary: bool = True) -> CalculusFunction:
        """The lifted characteristic function of a disk/rectangle region.

        Critical points in the spectrum must stay clear of the boundary. A
        nonreal pair takes the unit jet when the pair's canonical
        representative lies in the region, so conjugate partners always agree.
        """
        cs, L = self.cs, self.layout
        if check_boundary:
            margin_scale = max((abs(c.value) for c in cs.crit), default=0.0)
            margin = self.tol.boundary_margin(margin_scale)
            for c in cs.crit:
                if c.in_sigma_n and region.boundary_distance(c.value) <= margin:
                    raise BoundaryError(
                        f"region boundary passes within {margin:.1e} of the "
                        f"critical spectral point {c.value}"
                    )
        coords = np.zeros(L.size, dtype=complex)
        coords[: L.nvalues] = [region.contains(z) for z in cs.noncritical]
        inside = [region.contains(c.value) for c in cs.crit]
        inside += [region.contains(_zi_canonical(pt)) for pt in cs.zi]
        coords[L.unit[np.array(inside, dtype=bool)]] = 1.0
        return CalculusFunction(cs, coords)

    # -- decomposition and application -----------------------------------

    def _check_owns(self, fn: CalculusFunction):
        if fn.cs is not self.cs:
            raise DomainMismatchError(
                "function was built over a different critical set"
            )

    def interpolant(self, fn: CalculusFunction) -> BiPoly:
        """Low-degree polynomial matching the function's jets on the zero grid.

        Critical points contribute the box part of their jets, zero pairs
        their whole jet. The grid's interpolation system is built, gated and
        factored on the first call and kept, so a :class:`ConditioningError`
        comes from the first interpolant or apply, not from :meth:`build`.
        """
        self._check_owns(fn)
        if self._interpolation is None:
            self._interpolation = HermiteSystem(self.cs.grid, self.tol)
        return self._interpolation.solve(fn.coords[self.layout.grid_index])

    def remainder(self, fn: CalculusFunction, s: BiPoly):
        """Divide fn - lift(s) off the definitizing pair.

        Returns the scalar part keyed by noncritical eigenvalues and the
        overflow pairs keyed by critical spectral values. Raises when the
        difference is not in the vanishing-projection ideal.
        """
        self._check_owns(fn)
        cs, L = self.cs, self.layout
        coords, lifted = fn.coords, self._lift_coords(s)
        rho = coords - lifted
        # the lift norm enters the bound: cancellation noise scales with it
        bound = self.tol.rel * (
            1.0 + np.abs(coords).max(initial=0.0) + np.abs(lifted).max(initial=0.0)
        )
        over = np.flatnonzero(L.ideal & (np.abs(rho) > bound))
        if over.size:
            j = int(np.searchsorted(L.offsets, over[0], side="right")) - 1
            seg = L.segment(j)
            resid = float(np.abs(rho[seg][L.ideal[seg]]).max())
            label, point = cs.jet_point(j)
            raise NotInIdealError(f"remainder at {label} {point} is {resid:.2e} > {bound:.2e}")
        small = np.flatnonzero(np.abs(L.denom) <= self.tol.abs)
        if small.size:
            i = small[0]
            raise DomainMismatchError(
                f"{cs.noncritical[i]} behaves critically (p+q = {L.denom[i]:.2e}) but "
                "was not matched to a critical point; loosen the cluster tolerance"
            )
        g_values = dict(zip(cs.noncritical, rho[: L.nvalues] / L.denom))
        g_pairs = dict(zip(L.overflow_values, map(tuple, rho[L.overflow] * L.overflow_scale)))
        return g_values, g_pairs
    def decompose(self, fn: CalculusFunction):
        s = self.interpolant(fn)
        g_values, g_pairs = self.remainder(fn, s)
        return s, g_values, g_pairs

    def _matrix_powers(self, name: str, degree: int) -> np.ndarray:
        """M^0 .. M^degree of ``pair.A`` or ``pair.B``, stacked, kept and
        extended on demand."""
        have = self._powers.get(name)
        if have is None or have.shape[0] <= degree:
            M = getattr(self.pair, name)
            pows = [np.eye(M.shape[0], dtype=complex)] if have is None else list(have)
            while len(pows) <= degree:
                pows.append(pows[-1] @ M)
            have = np.array(pows)
            have.setflags(write=False)
            self._powers[name] = have
        return have[: degree + 1]

    def polynomial_at_pair(self, s: BiPoly) -> np.ndarray:
        """s(A, B) = sum_k A^k (sum_l c_kl B^l) over the kept commuting powers.

        The inner sums are one tensor contraction, the outer sum one matrix
        product of the stacked A-powers with the stacked inner sums.
        """
        C = s.dense()
        apow = self._matrix_powers("A", C.shape[0] - 1)
        bpow = self._matrix_powers("B", C.shape[1] - 1)
        n = apow.shape[1]
        inner = np.tensordot(C, bpow, axes=(1, 0))
        return apow.transpose(1, 0, 2).reshape(n, -1) @ inner.reshape(-1, n)

    def apply_decomposition(self, s: BiPoly, g_values, g_pairs) -> np.ndarray:
        D = augmented_integral(
            self.spectral, g_values, g_pairs, self.bundle.rr(1), self.bundle.rr(2)
        )
        return self.polynomial_at_pair(s) + self.bundle.expand(D)

    def apply(self, fn: CalculusFunction) -> np.ndarray:
        """The operator the function maps to.

        Jets at nonreal pairs outside the support set cannot influence the
        result and are zeroed before decomposing.
        """
        self._check_owns(fn)
        fn = self._zero_off_support(fn)
        s, g_values, g_pairs = self.decompose(fn)
        return self.apply_decomposition(s, g_values, g_pairs)

    def _zero_off_support(self, fn: CalculusFunction) -> CalculusFunction:
        if not self.layout.pairs_off.size:
            return fn
        coords = fn.coords.copy()
        coords[self.layout.pairs_off] = 0.0
        return CalculusFunction(self.cs, coords)

    # -- projections and spectra -----------------------------------------

    def riesz_projection(self, at) -> np.ndarray:
        """(unit jet at one point)(N): the idempotent isolating that point."""
        coords = np.zeros(self.layout.size, dtype=complex)
        coords[self.layout.unit[self.cs.locate([at])[0]]] = 1.0
        return self.apply(CalculusFunction(self.cs, coords))

    def spectral_projection(self, region) -> np.ndarray:
        """The lifted-indicator projection for an admissible region."""
        return self.apply(self.indicator(region))

    def spectrum(self):
        """Spectrum of N assembled from the transferred spectrum, the
        surviving critical points, and the supported nonreal pairs."""
        return self.cs.support_values()

    def check_invertible(self, fn: CalculusFunction) -> InvertibilityReport:
        """Decide invertibility of fn(N) over the support set and certify.

        When invertible, the inverse function (extended by the unit off the
        support) is applied and the product residual recorded.
        """
        cs, L, tol = self.cs, self.layout, self.tol
        moduli = np.abs(fn.values)
        min_mod = float(moduli.min()) if moduli.size else float("inf")
        # the last offending point is the witness, jets after values
        jets = np.flatnonzero((np.abs(fn.coords[L.unit]) <= tol.abs) & L.supported)
        values = np.flatnonzero(moduli <= tol.abs)
        if jets.size:
            label, point = cs.jet_point(int(jets[-1]))
            return InvertibilityReport(False, f"jet not invertible at {label} {point}", min_mod)
        if values.size:
            z = cs.noncritical[values[-1]]
            return InvertibilityReport(False, f"value vanishes at spectral point {z}", min_mod)
        coords = fn.coords.copy()
        coords[L.off_support] = 0.0
        coords[L.unit[~L.supported]] = 1.0
        inv_op = self.apply(CalculusFunction(cs, coords).inverse(tol.abs))
        op = self.apply(fn)
        resid = fro(inv_op @ op - np.eye(self.space.n))
        return InvertibilityReport(True, "invertible over the support set", min_mod, resid)


def _table_rows(data: dict):
    values = [(_complex(row["z"]), _complex(row["value"])) for row in data.get("values", [])]
    jets = [(_complex(row["z"]), Jet.from_dict(row["jet"])) for row in data.get("crit", [])]
    jets += [(_zero_pair(row["zw"]), Jet.from_dict(row["jet"])) for row in data.get("zi", [])]
    return values, jets


def function_from_dict(ctx: CalculusContext, data: dict) -> CalculusFunction:
    """Build a function from its file form.

    Kinds: ``bipoly`` (two-variable coefficients, lifted), ``indicator``
    (disk or rectangle region), ``delta`` (one jet at one point), ``table``
    (values and jets listed explicitly; anything omitted is zero). Malformed
    content raises :class:`DomainMismatchError`.
    """
    if not isinstance(data, dict):
        raise DomainMismatchError("a function file holds a JSON object")
    kind = data.get("kind")
    if kind == "bipoly":
        return ctx.lift(_read("bipoly coefficients", BiPoly.from_list, data.get("coeffs")))
    if kind == "indicator":
        return ctx.indicator(region_from_dict(data.get("region")))
    if kind == "delta":
        at = _read("delta point", _point, data.get("at"))
        return ctx.delta(at, _read("jet", Jet.from_dict, data.get("jet")))
    if kind == "table":
        cs, L = ctx.cs, ctx.layout
        values, jets = _read("table", _table_rows, data)
        coords = np.zeros(L.size, dtype=complex)
        zs = np.array([z for z, _ in values], dtype=complex)
        for (z, value), idx in zip(values, match_points(zs, cs.noncritical, cs.radius)):
            if idx is None:
                raise DomainMismatchError(f"{z} is not a noncritical spectral point")
            coords[idx] = value
        where = cs.locate([at for at, _ in jets], [jet.shape for _, jet in jets])
        for (_, jet), j in zip(jets, where):
            coords[L.segment(j)] = jet.coeffs
        return CalculusFunction(cs, coords)
    raise DomainMismatchError(f"unknown function kind {kind!r}")

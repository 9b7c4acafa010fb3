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

import copy
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .bipoly import (
    BiPoly, HermiteSystem, RealPoly, ZeroGrid, jet_gather, jet_rows, matrix_powers,
    taylor_table,
)
from .cluster import distinct_points, match_points
from .embed import EmbeddingBundle, Expansion, build_bundle
from .errors import (
    BoundaryError,
    DomainMismatchError,
    NotInIdealError,
    NotInvertibleError,
    ShapeMismatchError,
)
from .jets import A_KIND, B_KIND, JetShape, convolve, invert
from .krein import DefinitizablePair
from .spectral import SpectralData, diagonalize, snap_eigenvalues
from .tol import fro


# -- regions ----------------------------------------------------------------


@dataclass(frozen=True)
class Disk:
    center: complex
    radius: float

    def __post_init__(self):
        if not (np.isfinite(self.center) and self.radius >= 0):
            raise DomainMismatchError(
                f"disk needs a finite centre and a radius >= 0, "
                f"got {self.center!r} and {self.radius!r}"
            )

    def contains(self, z) -> bool:
        return abs(complex(z) - self.center) <= self.radius

    def boundary_distance(self, z) -> float:
        return abs(abs(complex(z) - self.center) - self.radius)


@dataclass(frozen=True)
class Rect:
    x: tuple
    y: tuple

    def __post_init__(self):
        if not (self.x[0] <= self.x[1] and self.y[0] <= self.y[1]):
            raise DomainMismatchError(f"rectangle bounds must be ordered, got {self.x} and {self.y}")

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
    the definitizing pair ``(p, q)`` and the points a function lives on.
    ``pinned[i]`` is the index of the critical point spectral cluster i is
    pinned to, or None; the noncritical values are the unpinned clusters'
    eigenvalues, in order."""

    grid: ZeroGrid
    pinned: tuple
    noncritical: tuple
    crit: tuple
    zi: tuple
    radius: float
    p: RealPoly
    q: RealPoly

    @property
    def crit_values(self):
        return tuple(c.value for c in self.crit)

    @cached_property
    def noncritical_index(self) -> dict:
        """``{point: index}`` of the noncritical points; a repeated point
        keeps its last index, as :func:`match_points` breaks ties."""
        return {z: i for i, z in enumerate(map(complex, self.noncritical))}

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
        pts += [c.value for c in self.crit if c.in_sigma_n]
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
    ``(0, 0)`` entry at ``unit[j]``. Spectral cluster ``value_clusters[i]``
    carries noncritical value i; a cluster pinned to a critical point is
    marked in ``critical`` and, in cluster order, reads its contraction
    weights off the entries ``overflow`` scaled by ``overflow_scale``. Every
    array is read-only.
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
        self.reset_support(cs)
        # sharp reads each pair's jet off its conjugate partner
        identity = np.arange(self.size)
        self.partner = identity.copy()
        for i, pt in enumerate(cs.zi):
            self.partner[self.segment(ncrit + i)] = identity[self.segment(ncrit + pt.partner)]
        # the entries the interpolant matches and the remainder must cancel:
        # the box of a critical jet (a prefix of it), all of a zero-pair jet
        box = [np.arange(start, start + sh.box().size) for sh, start in zip(shapes, self.offsets)]
        self.ideal = np.zeros(self.size, dtype=bool)
        for entries in box:
            self.ideal[entries] = True
        # the grid pairs run over a_zeros x b_zeros: the real ones are the
        # critical points in order, the others the zero pairs in cross() order
        real = np.array([za.imag == 0.0 and zb.imag == 0.0
                         for (za, _), (zb, _) in cs.grid.pairs()], dtype=bool)
        jets = np.where(real, np.cumsum(real) - 1, ncrit + np.cumsum(~real) - 1)
        self.grid_index = np.concatenate([box[j] for j in jets] or [np.zeros(0, int)])
        # every coordinate is an entry of a jet at a point (z, w); a value is
        # the 1 x 1 jet at (Re z, Im z)
        nc = self.noncritical = np.array(cs.noncritical, dtype=complex)
        self.point_z = np.concatenate([nc.real, [k[0] for k in keys]]).astype(complex)
        self.point_w = np.concatenate([nc.imag, [k[1] for k in keys]]).astype(complex)
        self.gather = jet_gather([JetShape(1, 1, B_KIND)] * self.nvalues + shapes)
        # remainder constants: p(Re z) + q(Im z) at the noncritical points; at
        # each critical spectral point x + iy with jet shape (m, n), the
        # overflow entries (m, 0), (0, n) and the factors m!/p^(m)(x),
        # n!/q^(n)(y) that turn them into the contraction-weighted pair
        p, q = cs.p, cs.q
        self.denom = p(self.noncritical.real) + q(self.noncritical.imag)
        self.critical = np.array([j is not None for j in cs.pinned], dtype=bool).reshape(-1)
        self.value_clusters = np.flatnonzero(~self.critical)
        over = [(j, cs.crit[j]) for j in cs.pinned if j is not None]
        self.overflow = np.array([
            [self.offsets[j] + c.shape.position(c.shape.m, 0),
             self.offsets[j] + c.shape.position(0, c.shape.n)] for j, c in over
        ], dtype=int).reshape(-1, 2)
        self.overflow_scale = np.array([
            [math.factorial(c.shape.m) / p.deriv(c.shape.m)(c.value.real),
             math.factorial(c.shape.n) / q.deriv(c.shape.n)(c.value.imag)] for _, c in over
        ]).reshape(-1, 2)
        for arr in (self.offsets, self.unit, self.partner, self.ideal, self.grid_index,
                    self.noncritical, self.point_z, self.point_w, *self.gather[0], self.denom,
                    self.value_clusters, self.critical, self.overflow, self.overflow_scale):
            arr.setflags(write=False)

    def reset_support(self, cs: CriticalSet):
        """Take the support arrays from the flags of ``cs``, a critical set
        that differs from this layout's in those flags alone."""
        # jets over sigma_N: critical points in the spectrum, supported pairs
        sup = [c.in_sigma_n for c in cs.crit] + [pt.in_support for pt in cs.zi]
        self.supported = np.array(sup, dtype=bool)
        # the entries of the jets off sigma_N; those of zero pairs cannot
        # influence an applied function
        sizes = np.diff(self.offsets)
        off = self.off_support = self.nvalues + np.flatnonzero(np.repeat(~self.supported, sizes))
        self.pairs_off = off[off >= self.offsets[len(cs.crit)]]
        for arr in (self.supported, off, self.pairs_off):
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


def idempotent_ranks(E) -> np.ndarray:
    """The rank of every idempotent of a stack ``(..., n, n)``: its trace,
    rounded to an integer."""
    return np.rint(np.trace(E, axis1=-2, axis2=-1).real).astype(int)


# region boundaries must clear critical spectral points by this many radii
BOUNDARY_FACTOR = 10


class CalculusContext:
    """Everything needed to evaluate functions of one definitizable operator.

    Built once per instance: the embedding bundle, the transferred operator
    ``theta_n`` = Th(N) and its spectral data (eigenvalues snapped onto
    matching critical points), the zero grid of the definitizing pair, and the
    resulting domain with its coordinate layout. ``phi -> phi(N)`` is linear,
    so the build compiles fixed maps and keeps them: the gated, factored
    interpolation system, the lift ``LI`` of its basis onto the coordinates,
    the basis ``S_g`` at ``(A, B)`` and the expansion of the spectral
    integral with its commutant certificate
    (:class:`~kreincalc.embed.Expansion`); an error of these maps raises at
    build. An apply is one LU solve ``sol``, the remainder ``x - LI sol`` and
    its tests, one ``n x r x n`` product and ``sum_g sol_g S_g``;
    :meth:`apply_many` does this for many functions in one pass, and
    :meth:`apply` is its stack of one.

    No eigenvalue problem of the non-normal N is solved. The build applies
    the unit jet of every critical point and zero pair with every jet in the
    support: the rounded trace of each Riesz idempotent ``(unit jet)(N)``,
    the algebraic multiplicity of the jet's point in sigma(N), decides which
    critical points lie in sigma(N) and which zero pairs in the support.
    ``riesz`` keeps the idempotents of the supported jets, in layout order.
    """

    def __init__(self, pair: DefinitizablePair, bundle: EmbeddingBundle,
                 spectral: SpectralData, cs: CriticalSet, theta_n: np.ndarray):
        self.pair = pair
        self.bundle = bundle
        self.spectral = spectral
        self.cs = cs
        self.layout = cs.layout
        self.theta_n = theta_n
        self.riesz = None  # the supported jets' Riesz idempotents, kept by build
        self._lifts = {}  # coefficient shape -> its compiled lift (_lift_matrix)

    @cached_property
    def theta_parts(self) -> tuple:
        """``(Th_j(N), diagonalize(Th_j(N)))`` for V1 and V2 (j = 1, 2, at
        index j - 1), made on the first access."""
        N = self.pair.N
        parts = (self.bundle.compress(N, j) for j in (1, 2))
        return tuple((X, diagonalize(X, self.tol)) for X in parts)

    @classmethod
    def build(cls, pair: DefinitizablePair) -> "CalculusContext":
        tol = pair.space.tol
        bundle = build_bundle(pair)
        theta_n = bundle.compress(pair.N)
        theta_n.setflags(write=False)
        data = diagonalize(theta_n, tol)

        grid = ZeroGrid.from_polys(pair.p, pair.q)
        crit_pairs = [
            (x, mx, y, my) for x, mx in grid.real_a for y, my in grid.real_b
        ]
        crit_values = [complex(x, y) for x, _, y, _ in crit_pairs]

        # the one radius of point identity; Th(N) is normal, so the largest
        # modulus of its eigenvalues is its spectral norm
        radius = tol.cluster_radius(max(map(abs, [*data.eigenvalues, *crit_values]), default=0.0))

        data, pinned = snap_eigenvalues(data, crit_values, radius)
        noncrit = tuple(ev for ev, hit in zip(data.eigenvalues, pinned) if hit is None)
        crit = tuple(
            CritPoint(v, JetShape(mx, my, A_KIND), spectral=i in pinned, in_sigma_n=True)
            for i, (v, (_, mx, _, my)) in enumerate(zip(crit_values, crit_pairs))
        )

        # RealPoly.zeros lists every nonreal zero with its exact conjugate, so
        # a pair's conjugate partner is the pair of conjugates, bit for bit
        cross = grid.cross()
        index = {(za, zb): i for i, ((za, _), (zb, _)) in enumerate(cross)}
        zi = tuple(ZiPoint(zw=(za, zb), shape=JetShape(ma, mb, B_KIND),
                           partner=index[za.conjugate(), zb.conjugate()], in_support=True)
                   for (za, ma), (zb, mb) in cross)

        # with every jet supported, apply the unit jets: E_j = (unit jet j)(N)
        # is the Riesz idempotent of jet j, and its trace the algebraic
        # multiplicity of its point in sigma(N)
        cs = CriticalSet(grid, pinned, noncrit, crit, zi, radius, pair.p, pair.q)
        ctx = cls(pair, bundle, data, cs, theta_n)
        L = cs.layout
        units = np.zeros((L.unit.size, L.size), dtype=complex)
        units[np.arange(L.unit.size), L.unit] = 1.0
        riesz = ctx.apply_many([CalculusFunction(cs, u) for u in units])
        rank = idempotent_ranks(riesz)
        # a point is in sigma(N) when its idempotent has rank >= 1; a zero
        # pair is in the support when it and its conjugate partner both are
        crit = tuple(replace(c, in_sigma_n=bool(m >= 1)) for c, m in zip(crit, rank))
        ranked = rank[len(crit):]
        zi = tuple(replace(pt, in_support=bool(ranked[i] >= 1 and ranked[pt.partner] >= 1))
                   for i, pt in enumerate(zi))
        # the compiled maps depend on the grid, the gather and L.critical
        # alone, which the support flags leave as they are: ctx keeps them,
        # and the new set's cached layout is a copy of L with the new flags
        ctx.cs = replace(cs, crit=crit, zi=zi)
        ctx.layout = ctx.cs.__dict__["layout"] = copy.copy(L)
        ctx.layout.reset_support(ctx.cs)
        ctx.riesz = riesz[ctx.layout.supported]
        ctx.riesz.setflags(write=False)
        return ctx

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
        return CalculusFunction(self.cs, self._lift_coords(s.dense()))

    def _lift_coords(self, coeffs) -> np.ndarray:
        """Coordinates of the lift of the polynomial with dense coefficients
        ``coeffs``, or of each of a stack: one product with the compiled
        lift of the coefficient shape."""
        coeffs = np.asarray(coeffs, dtype=complex)
        shape = coeffs.shape[-2:]
        return coeffs.reshape(coeffs.shape[:-2] + (-1,)) @ self._lift_matrix(shape)

    def _lift_matrix(self, shape) -> np.ndarray:
        """The lift is linear: row ``K * Dw + L`` of this read-only matrix
        holds the coordinates of z^K w^L for coefficient shape ``(Dz, Dw)``.
        Coordinate e, the ``(k, l)`` entry of a jet at ``(z, w)``, takes the
        product of the Taylor coefficients k of z^K and l of w^L there; the
        matrix is made on the first lift of its shape."""
        M = self._lifts.get(shape)
        if M is None:
            L = self.layout
            index, order_z, order_w = L.gather
            Tz = taylor_table(L.point_z, shape[0] - 1, order_z)
            Tw = taylor_table(L.point_w, shape[1] - 1, order_w)
            M = np.ascontiguousarray(jet_rows(Tz, Tw, index).T)
            M.setflags(write=False)
            self._lifts[shape] = M
        return M

    def _unit_jet(self, j: int) -> CalculusFunction:
        coords = np.zeros(self.layout.size, dtype=complex)
        coords[self.layout.unit[j]] = 1.0
        return CalculusFunction(self.cs, coords)

    def indicator(self, region) -> CalculusFunction:
        """The lifted characteristic function of a disk/rectangle region.

        Critical points in the spectrum must stay clear of the boundary by
        ``BOUNDARY_FACTOR`` radii of the critical set. A nonreal pair takes
        the unit jet when the pair's canonical representative lies in the
        region, so conjugate partners always agree.
        """
        cs, L = self.cs, self.layout
        margin = BOUNDARY_FACTOR * cs.radius
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

    @cached_property
    def _vanishing_denominators(self) -> np.ndarray:
        """The noncritical points where p(Re z) + q(Im z) is at zero."""
        return np.flatnonzero(np.abs(self.layout.denom) <= self.tol.abs)

    def _weights(self, coords, lifted):
        """``coords`` minus the coordinates ``lifted`` of a polynomial, or
        each row of a stack of them, divided off the definitizing pair: the
        weights ``(w, g)`` :class:`~kreincalc.embed.Expansion` integrates.
        The ideal test of every row comes first; the first failing row
        raises."""
        cs, L = self.cs, self.layout
        rho = coords - lifted
        # the lift norm enters the bound: cancellation noise scales with it
        bound = self.tol.rel * (
            1.0
            + np.abs(coords).max(axis=-1, initial=0.0)
            + np.abs(lifted).max(axis=-1, initial=0.0)
        )
        over = np.flatnonzero(L.ideal & (np.abs(rho) > bound[..., None]))
        if over.size:
            row, at = divmod(int(over[0]), L.size)
            j = int(np.searchsorted(L.offsets, at, side="right")) - 1
            seg = L.segment(j)
            resid = float(np.abs(rho.reshape(-1, L.size)[row, seg][L.ideal[seg]]).max())
            label, point = cs.jet_point(j)
            raise NotInIdealError(
                f"remainder at {label} {point} is {resid:.2e} > {np.ravel(bound)[row]:.2e}"
            )
        if self._vanishing_denominators.size:
            i = self._vanishing_denominators[0]
            raise DomainMismatchError(
                f"{cs.noncritical[i]} behaves critically (p+q = {L.denom[i]:.2e}) but "
                "was not matched to a critical point; loosen the cluster tolerance"
            )
        k = len(cs.pinned)
        w = np.zeros(rho.shape[:-1] + (k,), dtype=complex)
        w[..., L.value_clusters] = rho[..., : L.nvalues] / L.denom
        g = np.zeros(rho.shape[:-1] + (k, 2), dtype=complex)
        g[..., L.critical, :] = rho[..., L.overflow] * L.overflow_scale
        return w, g

    def polynomial_at_pair(self, s: BiPoly) -> np.ndarray:
        """s(A, B) = sum_k A^k (sum_l c_kl B^l) over monomial powers.

        The inner sums are one tensor contraction, the outer sum one matrix
        product of the stacked A-powers with the stacked inner sums.
        """
        C = s.dense()
        apow = matrix_powers(self.pair.A, C.shape[0])
        bpow = matrix_powers(self.pair.B, C.shape[1])
        n = apow.shape[1]
        inner = np.tensordot(C, bpow, axes=(1, 0))
        return apow.transpose(1, 0, 2).reshape(n, -1) @ inner.reshape(-1, n)

    @cached_property
    def _compiled(self):
        """``(system, lift, at_pair, expansion)``; a gated interpolation
        system raises :class:`ConditioningError` here, on the first apply,
        which :meth:`build` makes."""
        L, pair = self.layout, self.pair
        system = HermiteSystem(self.cs.grid, self.tol)
        lift = system.jet_matrix(L.point_z, L.point_w, L.gather)
        at_pair = system.basis_at(pair.A, pair.B).reshape(system.size, pair.A.size)
        return system, lift, at_pair, Expansion(self.bundle, self.spectral, L.critical)

    def apply(self, fn: CalculusFunction) -> np.ndarray:
        """The operator the function maps to: ``apply_many([fn])[0]``."""
        return self.apply_many([fn])[0]

    def apply_many(self, fns) -> np.ndarray:
        """The operators m functions map to, an ``m x n x n`` stack, through
        the compiled maps in one pass: an LU solve, the remainder and its
        tests, the expansion and ``sum_g sol_g S_g`` for each function, with
        the same products as a single :meth:`apply`, so ``apply_many(fns)[i]``
        equals ``apply(fns[i])`` to the bit.

        Jets at nonreal pairs outside the support set cannot influence the
        result and are zeroed before decomposing. Every function gets every
        check of the compiled maps; the ideal tests of all of them run
        before the certificates, and the first function failing a test
        raises its error.
        """
        for fn in fns:
            self._check_owns(fn)
        system, lift, at_pair, expansion = self._compiled
        L = self.layout
        x = np.array([fn.coords for fn in fns]).reshape(-1, L.size)
        if L.pairs_off.size:
            x[:, L.pairs_off] = 0.0
        # one product per function on a contiguous row, as for a single
        # apply, so each operator is the same to the bit in any batch
        sol = np.ascontiguousarray(system.coefficients(x[:, L.grid_index].T).T)[:, None]
        out = expansion(*self._weights(x, (sol @ lift.T)[:, 0]))
        out += (sol @ at_pair).reshape(out.shape)
        return out

    # -- projections and spectra -----------------------------------------

    def riesz_projection(self, at) -> np.ndarray:
        """(unit jet at one point)(N): the idempotent isolating that point. A
        jet in the support returns a copy of the idempotent the build kept,
        the same to the bit, as ``apply_many`` is batch-invariant."""
        j = self.cs.locate([at])[0]
        L = self.layout
        if self.riesz is not None and L.supported[j]:
            return self.riesz[np.count_nonzero(L.supported[:j])].copy()
        return self.apply(self._unit_jet(j))

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
        inv_op, op = self.apply_many([CalculusFunction(cs, coords).inverse(tol.abs), fn])
        resid = fro(inv_op @ op - np.eye(self.space.n))
        return InvertibilityReport(True, "invertible over the support set", min_mod, resid)


def _jet_entries(d: dict) -> tuple:
    """The shape of a jet in file form and its entries ``{position: value}``
    in that shape's order; of entries at one index the last wins. An index
    outside the shape raises :class:`ShapeMismatchError`."""
    shape = JetShape(int(d["m"]), int(d["n"]), str(d["kind"]))
    entries = {(int(k), int(l)): complex(re, im) for k, l, re, im in d["entries"]}
    return shape, {shape.position(k, l): v for (k, l), v in entries.items()}


def _table_rows(data: dict):
    values = [(_complex(row["z"]), _complex(row["value"])) for row in data.get("values", [])]
    jets = [(_complex(row["z"]), *_jet_entries(row["jet"])) for row in data.get("crit", [])]
    jets += [(_zero_pair(row["zw"]), *_jet_entries(row["jet"])) for row in data.get("zi", [])]
    return values, jets


def _table_function(ctx: CalculusContext, values, jets) -> CalculusFunction:
    """The function with the ``(z, value)`` and ``(at, shape, entries)``
    rows of a table, zero elsewhere. Each entry goes straight to its
    coordinate; a later row for the same jet replaces its whole segment.
    A value at exactly a noncritical point is looked up, and only the others
    are matched to the closest point within the cluster radius."""
    cs, L = ctx.cs, ctx.layout
    coords = np.zeros(L.size, dtype=complex)
    where = [cs.noncritical_index.get(z) for z, _ in values]
    misses = [k for k, i in enumerate(where) if i is None]
    zs = [values[k][0] for k in misses]
    for k, i in zip(misses, match_points(zs, cs.noncritical, cs.radius)):
        where[k] = i
    for (z, value), i in zip(values, where):
        if i is None:
            raise DomainMismatchError(f"{z} is not a noncritical spectral point")
        coords[i] = value
    where = cs.locate([at for at, _, _ in jets], [shape for _, shape, _ in jets])
    for j, entries in dict(zip(where, [entries for _, _, entries in jets])).items():
        start = L.offsets[j]
        for pos, value in entries.items():
            coords[start + pos] = value
    return CalculusFunction(cs, coords)


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
        return _table_function(ctx, [], [(at, *_read("jet", _jet_entries, data.get("jet")))])
    if kind == "table":
        return _table_function(ctx, *_read("table", _table_rows, data))
    raise DomainMismatchError(f"unknown function kind {kind!r}")

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

import numpy as np
from numpy.polynomial import polynomial as npoly

from .bipoly import BiPoly, HermiteSystem, ZeroGrid, jet_gather, taylor_shift
from .cluster import cluster_points, match_point, match_points
from .embed import EmbeddingBundle, build_bundle
from .errors import (
    BoundaryError,
    DomainMismatchError,
    NotInIdealError,
    NotInvertibleError,
    ShapeMismatchError,
)
from .jets import A_KIND, B_KIND, Jet, JetShape
from .krein import DefinitizablePair
from .spectral import SpectralData, augmented_integral, diagonalize, snap_eigenvalues


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


def region_from_dict(d: dict):
    kind = d.get("type")
    if kind == "disk":
        re, im = d["center"]
        return Disk(complex(re, im), float(d["radius"]))
    if kind == "rect":
        return Rect(tuple(map(float, d["x"])), tuple(map(float, d["y"])))
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
    """Domain data of the function class for one instance."""

    grid: ZeroGrid
    noncritical: tuple
    crit: tuple
    zi: tuple
    sigma_n: tuple
    radius: float

    @property
    def crit_values(self):
        return tuple(c.value for c in self.crit)

    def crit_index(self, value) -> int:
        idx = match_point(value, self.crit_values, self.radius)
        if idx is None:
            raise DomainMismatchError(f"{value} is not a critical point")
        return idx

    def zi_index(self, zw) -> int:
        for i, pt in enumerate(self.zi):
            if (
                abs(pt.zw[0] - complex(zw[0])) <= self.radius
                and abs(pt.zw[1] - complex(zw[1])) <= self.radius
            ):
                return i
        raise DomainMismatchError(f"{zw} is not a nonreal zero pair")

    def support_values(self):
        """The sigma_N point set: spectrum plus surviving critical/zi points."""
        pts = list(self.noncritical)
        pts += [c.value for c in self.crit if c.spectral or c.in_sigma_n]
        pts += [pt.location for pt in self.zi if pt.in_support]
        out = []
        for z in pts:
            if match_point(z, out, self.radius) is None:
                out.append(z)
        return tuple(sorted(out, key=lambda z: (z.real, z.imag)))


def _zi_canonical(pt: ZiPoint) -> complex:
    """Representative location shared by both members of a conjugate pair."""
    xi, eta = pt.zw
    if (xi.imag, eta.imag) >= (-xi.imag, -eta.imag):
        return pt.location
    return np.conj(xi) + 1j * np.conj(eta)


# -- functions --------------------------------------------------------------


class CalculusFunction:
    """A member of the function class: values plus jets over a CriticalSet.

    Membership needs no growth constraint here: the domain is finite, every
    point is isolated, and boundedness is automatic, so any assignment of
    values and correctly-shaped jets is admissible.
    """

    __slots__ = ("cs", "values", "crit_jets", "zi_jets")

    def __init__(self, cs: CriticalSet, values, crit_jets, zi_jets):
        values = np.asarray(values, dtype=complex).reshape(-1).copy()
        values.setflags(write=False)
        if values.size != len(cs.noncritical):
            raise DomainMismatchError("one value per noncritical spectral point")
        crit_jets = tuple(crit_jets)
        zi_jets = tuple(zi_jets)
        if len(crit_jets) != len(cs.crit) or len(zi_jets) != len(cs.zi):
            raise DomainMismatchError("one jet per critical/nonreal-pair point")
        for jet, cp in zip(crit_jets, cs.crit):
            if jet.shape != cp.shape:
                raise ShapeMismatchError(f"jet at {cp.value} must have shape {cp.shape}")
        for jet, pt in zip(zi_jets, cs.zi):
            if jet.shape != pt.shape:
                raise ShapeMismatchError(f"jet at {pt.zw} must have shape {pt.shape}")
        object.__setattr__(self, "cs", cs)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "crit_jets", crit_jets)
        object.__setattr__(self, "zi_jets", zi_jets)

    def __setattr__(self, name, value):
        raise AttributeError("CalculusFunction is immutable")

    def _check_domain(self, other):
        if self.cs is not other.cs:
            raise DomainMismatchError("functions live over different critical sets")

    def __add__(self, other):
        self._check_domain(other)
        return CalculusFunction(
            self.cs,
            self.values + other.values,
            [a + b for a, b in zip(self.crit_jets, other.crit_jets)],
            [a + b for a, b in zip(self.zi_jets, other.zi_jets)],
        )

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, other):
        if isinstance(other, CalculusFunction):
            self._check_domain(other)
            return CalculusFunction(
                self.cs,
                self.values * other.values,
                [a * b for a, b in zip(self.crit_jets, other.crit_jets)],
                [a * b for a, b in zip(self.zi_jets, other.zi_jets)],
            )
        c = complex(other)
        return CalculusFunction(
            self.cs,
            self.values * c,
            [c * j for j in self.crit_jets],
            [c * j for j in self.zi_jets],
        )

    __rmul__ = __mul__

    def sharp(self) -> "CalculusFunction":
        """The involution: conjugate in place, swapping conjugate zero pairs."""
        zi = [
            self.zi_jets[pt.partner].conj() for pt in self.cs.zi
        ]
        return CalculusFunction(
            self.cs,
            self.values.conj(),
            [j.conj() for j in self.crit_jets],
            zi,
        )

    def inverse(self, abs_tol: float = 1e-12) -> "CalculusFunction":
        """Pointwise reciprocal; every value and jet must be invertible."""
        values = np.empty_like(self.values)
        for i, v in enumerate(self.values):
            if abs(v) <= abs_tol:
                raise NotInvertibleError(
                    f"function vanishes at spectral point {self.cs.noncritical[i]}",
                    point=self.cs.noncritical[i],
                )
            values[i] = 1.0 / v
        crit = []
        for jet, cp in zip(self.crit_jets, self.cs.crit):
            try:
                crit.append(jet.inverse(abs_tol))
            except NotInvertibleError as exc:
                raise NotInvertibleError(
                    f"jet at critical point {cp.value} is not invertible", point=cp.value
                ) from exc
        zi = []
        for jet, pt in zip(self.zi_jets, self.cs.zi):
            try:
                zi.append(jet.inverse(abs_tol))
            except NotInvertibleError as exc:
                raise NotInvertibleError(
                    f"jet at zero pair {pt.zw} is not invertible", point=pt.zw
                ) from exc
        return CalculusFunction(self.cs, values, crit, zi)

    def norm(self) -> float:
        vals = [float(np.max(np.abs(self.values)))] if self.values.size else [0.0]
        vals += [j.norm() for j in self.crit_jets]
        vals += [j.norm() for j in self.zi_jets]
        return max(vals)

    def replace(self, values=None, crit_jets=None, zi_jets=None) -> "CalculusFunction":
        return CalculusFunction(
            self.cs,
            self.values if values is None else values,
            self.crit_jets if crit_jets is None else crit_jets,
            self.zi_jets if zi_jets is None else zi_jets,
        )


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
    the zero grid of the definitizing pair, and the resulting domain. The
    factored interpolation system and the powers of ``A`` and ``B`` are built
    on first use and kept.
    """

    def __init__(self, pair: DefinitizablePair, bundle: EmbeddingBundle,
                 spectral: SpectralData, cs: CriticalSet):
        self.pair = pair
        self.bundle = bundle
        self.spectral = spectral
        self.cs = cs
        self._interpolation = None
        self._powers = {}
        self._layout()

    def _layout(self):
        """Index tables of the coordinate vector of a function.

        A function's coordinates are its noncritical values, then the
        entries of every critical jet, then those of every zero-pair jet;
        jet i occupies ``_offsets[i]:_offsets[i + 1]``.
        """
        cs = self.cs
        self._jet_shapes = [c.shape for c in cs.crit] + [pt.shape for pt in cs.zi]
        keys = [(c.value.real, c.value.imag) for c in cs.crit] + [pt.zw for pt in cs.zi]
        sizes = [sh.size for sh in self._jet_shapes]
        offsets = len(cs.noncritical) + np.concatenate([[0], np.cumsum(sizes)]).astype(int)
        # the entries the interpolant matches and the remainder must cancel:
        # the box of a critical jet (a prefix of it), all of a zero-pair jet
        box = {
            key: np.arange(start, start + sh.box().size)
            for key, sh, start in zip(keys, self._jet_shapes, offsets)
        }
        self._ideal = np.zeros(offsets[-1], dtype=bool)
        for entries in box.values():
            self._ideal[entries] = True
        # grid pairs key real zeros as complex, equal to the float keys above
        self._grid_index = np.concatenate(
            [box[(za, zb)] for (za, _), (zb, _) in cs.grid.pairs()] or [np.zeros(0, int)]
        )
        # overflow entries (m, 0) and (0, n) of the critical points in the spectrum
        self._overflow = [
            (c, start + c.shape.position(c.shape.m, 0),
             start + c.shape.position(0, c.shape.n))
            for c, start in zip(cs.crit, offsets) if c.spectral
        ]
        self._offsets = offsets
        self._noncritical = np.array(cs.noncritical, dtype=complex)
        self._jet_z = np.array([k[0] for k in keys], dtype=complex)
        self._jet_w = np.array([k[1] for k in keys], dtype=complex)
        self._gather = jet_gather(self._jet_shapes)
        for arr in (self._ideal, self._grid_index, self._offsets, self._noncritical,
                    self._jet_z, self._jet_w, *self._gather[0]):
            arr.setflags(write=False)

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
        noncrit = tuple(
            ev for ev in data.eigenvalues
            if match_point(ev, crit_values, 0.0) is None
        )

        n_evals = np.linalg.eigvals(pair.N)
        sigma_n = []
        for c, _ in cluster_points(n_evals, radius):
            hit = match_point(c, crit_values, radius)
            sigma_n.append(crit_values[hit] if hit is not None else c)
        sigma_n = tuple(sigma_n)

        spectral_set = set(data.eigenvalues)
        crit = tuple(
            CritPoint(
                value=v,
                shape=JetShape(mx, my, A_KIND),
                spectral=v in spectral_set,
                in_sigma_n=match_point(v, sigma_n, radius) is not None,
            )
            for v, (x, mx, y, my) in zip(crit_values, crit_pairs)
        )

        cross = grid.cross()
        zi_zw = [(za, zb) for (za, _), (zb, _) in cross]
        zi = []
        for ((za, ma), (zb, mb)) in cross:
            partner = None
            for k, (oa, ob) in enumerate(zi_zw):
                if abs(oa - np.conj(za)) <= radius and abs(ob - np.conj(zb)) <= radius:
                    partner = k
                    break
            if partner is None:
                raise DomainMismatchError(
                    f"nonreal zero pair {(za, zb)} lacks its conjugate partner"
                )
            loc, cloc = za + 1j * zb, np.conj(za) + 1j * np.conj(zb)
            in_support = (
                match_point(loc, sigma_n, radius) is not None
                and match_point(cloc, sigma_n, radius) is not None
            )
            zi.append(
                ZiPoint(
                    zw=(za, zb),
                    shape=JetShape(ma, mb, B_KIND),
                    partner=partner,
                    in_support=in_support,
                )
            )

        cs = CriticalSet(
            grid=grid,
            noncritical=noncrit,
            crit=crit,
            zi=tuple(zi),
            sigma_n=sigma_n,
            radius=radius,
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
        cs = self.cs
        return CalculusFunction(
            cs,
            np.zeros(len(cs.noncritical), dtype=complex),
            [Jet.zeros(c.shape) for c in cs.crit],
            [Jet.zeros(p.shape) for p in cs.zi],
        )

    def one(self) -> CalculusFunction:
        cs = self.cs
        return CalculusFunction(
            cs,
            np.ones(len(cs.noncritical), dtype=complex),
            [Jet.unit(c.shape) for c in cs.crit],
            [Jet.unit(p.shape) for p in cs.zi],
        )

    def lift(self, s: BiPoly) -> CalculusFunction:
        """A two-variable polynomial as a member of the function class.

        Scalar values are s(Re z, Im z); critical points carry the full
        overflow jet of that restriction, nonreal pairs the holomorphic jet.
        """
        coords = self._lift_coords(s)
        off = self._offsets
        jets = [
            Jet(sh, coords[off[i]:off[i + 1]]) for i, sh in enumerate(self._jet_shapes)
        ]
        ncrit = len(self.cs.crit)
        return CalculusFunction(self.cs, coords[: off[0]], jets[:ncrit], jets[ncrit:])

    def _lift_coords(self, s: BiPoly) -> np.ndarray:
        """Coordinates of ``lift(s)``: a vectorized evaluation at the
        noncritical points and one batched Taylor shift at all others."""
        C = s.dense()
        nc = self._noncritical
        values = npoly.polyval2d(nc.real, nc.imag, C).astype(complex)
        if not self._jet_shapes:
            return values
        index, order_z, order_w = self._gather
        table = taylor_shift(C, self._jet_z, self._jet_w, order_z, order_w)
        return np.concatenate([values, table[index]])

    @staticmethod
    def _coords(fn: CalculusFunction) -> np.ndarray:
        return np.concatenate(
            [fn.values]
            + [j.coeffs for j in fn.crit_jets]
            + [j.coeffs for j in fn.zi_jets]
        )

    def delta(self, at, jet: Jet) -> CalculusFunction:
        """The function equal to ``jet`` at one critical/pair point, zero elsewhere."""
        cs = self.cs
        fn = self.zero()
        if isinstance(at, tuple):
            i = cs.zi_index(at)
            if jet.shape != cs.zi[i].shape:
                raise ShapeMismatchError(
                    f"jet at {at} must have shape {cs.zi[i].shape}"
                )
            zi = list(fn.zi_jets)
            zi[i] = jet
            return fn.replace(zi_jets=zi)
        i = cs.crit_index(complex(at))
        if jet.shape != cs.crit[i].shape:
            raise ShapeMismatchError(
                f"jet at {at} must have shape {cs.crit[i].shape}"
            )
        crit = list(fn.crit_jets)
        crit[i] = jet
        return fn.replace(crit_jets=crit)

    def indicator(self, region, check_boundary: bool = True) -> CalculusFunction:
        """The lifted characteristic function of a disk/rectangle region.

        Critical points in the spectrum must stay clear of the boundary. A
        nonreal pair takes the unit jet when the pair's canonical
        representative lies in the region, so conjugate partners always agree.
        """
        cs = self.cs
        if check_boundary:
            margin_scale = max((abs(c.value) for c in cs.crit), default=0.0)
            margin = self.tol.boundary_margin(margin_scale)
            for c in cs.crit:
                if c.in_sigma_n and region.boundary_distance(c.value) <= margin:
                    raise BoundaryError(
                        f"region boundary passes within {margin:.1e} of the "
                        f"critical spectral point {c.value}"
                    )
        values = [1.0 if region.contains(z) else 0.0 for z in cs.noncritical]
        crit = [
            Jet.unit(c.shape) if region.contains(c.value) else Jet.zeros(c.shape)
            for c in cs.crit
        ]
        zi = [
            Jet.unit(pt.shape) if region.contains(_zi_canonical(pt)) else Jet.zeros(pt.shape)
            for pt in cs.zi
        ]
        return CalculusFunction(cs, values, crit, zi)

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
        return self._interpolation.solve(self._coords(fn)[self._grid_index])

    def remainder(self, fn: CalculusFunction, s: BiPoly):
        """Divide fn - lift(s) off the definitizing pair.

        Returns the scalar part keyed by noncritical eigenvalues and the
        overflow pairs keyed by critical spectral values. Raises when the
        difference is not in the vanishing-projection ideal.
        """
        self._check_owns(fn)
        cs, p, q = self.cs, self.pair.p, self.pair.q
        coords, lifted = self._coords(fn), self._lift_coords(s)
        rho = coords - lifted
        # the lift norm enters the bound: cancellation noise scales with it
        bound = self.tol.ideal * (
            1.0 + np.abs(coords).max(initial=0.0) + np.abs(lifted).max(initial=0.0)
        )
        over = np.flatnonzero(self._ideal & (np.abs(rho) > bound))
        if over.size:
            i = int(np.searchsorted(self._offsets, over[0], side="right")) - 1
            seg = slice(self._offsets[i], self._offsets[i + 1])
            resid = float(np.abs(rho[seg][self._ideal[seg]]).max())
            if i < len(cs.crit):
                raise NotInIdealError(
                    f"projection of remainder at {cs.crit[i].value} is "
                    f"{resid:.2e} > {bound:.2e}"
                )
            raise NotInIdealError(
                f"remainder at zero pair {cs.zi[i - len(cs.crit)].zw} is "
                f"{resid:.2e} > {bound:.2e}"
            )
        nc = self._noncritical
        denom = p(nc.real) + q(nc.imag)
        small = np.flatnonzero(np.abs(denom) <= self.tol.abs)
        if small.size:
            i = small[0]
            raise DomainMismatchError(
                f"{cs.noncritical[i]} behaves critically (p+q = {denom[i]:.2e}) but "
                "was not matched to a critical point; loosen the cluster tolerance"
            )
        g_values = dict(zip(cs.noncritical, rho[: len(nc)] / denom))
        g_pairs = {}
        for c, i1, i2 in self._overflow:
            dp, dq = c.shape.m, c.shape.n
            g1 = math.factorial(dp) * rho[i1] / p.deriv(dp)(c.value.real)
            g2 = math.factorial(dq) * rho[i2] / q.deriv(dq)(c.value.imag)
            g_pairs[c.value] = (g1, g2)
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
        if all(pt.in_support for pt in self.cs.zi):
            return fn
        zi = [
            jet if pt.in_support else Jet.zeros(pt.shape)
            for jet, pt in zip(fn.zi_jets, self.cs.zi)
        ]
        return fn.replace(zi_jets=zi)

    # -- projections and spectra -----------------------------------------

    def riesz_projection(self, at) -> np.ndarray:
        """(unit jet at one point)(N): the idempotent isolating that point."""
        if isinstance(at, tuple):
            shape = self.cs.zi[self.cs.zi_index(at)].shape
        else:
            shape = self.cs.crit[self.cs.crit_index(complex(at))].shape
        return self.apply(self.delta(at, Jet.unit(shape)))

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
        cs, tol = self.cs, self.tol
        moduli = [abs(v) for v in fn.values]
        witness = None
        for i, m in enumerate(moduli):
            if m <= tol.abs:
                witness = f"value vanishes at spectral point {cs.noncritical[i]}"
        for jet, c in zip(fn.crit_jets, cs.crit):
            if (c.spectral or c.in_sigma_n) and abs(jet.value) <= tol.abs:
                witness = f"jet not invertible at critical point {c.value}"
        for jet, pt in zip(fn.zi_jets, cs.zi):
            if pt.in_support and abs(jet.value) <= tol.abs:
                witness = f"jet not invertible at zero pair {pt.zw}"
        min_mod = min(moduli) if moduli else float("inf")
        if witness is not None:
            return InvertibilityReport(False, witness, min_mod)
        crit = [
            jet if (c.spectral or c.in_sigma_n) else Jet.unit(c.shape)
            for jet, c in zip(fn.crit_jets, cs.crit)
        ]
        zi = [
            jet if pt.in_support else Jet.unit(pt.shape)
            for jet, pt in zip(fn.zi_jets, cs.zi)
        ]
        extended = fn.replace(crit_jets=crit, zi_jets=zi)
        inv_op = self.apply(extended.inverse(tol.abs))
        op = self.apply(fn)
        resid = float(np.linalg.norm(inv_op @ op - np.eye(self.space.n), "fro"))
        return InvertibilityReport(True, "invertible over the support set", min_mod, resid)


def function_from_dict(ctx: CalculusContext, data: dict) -> CalculusFunction:
    """Build a function from its file form.

    Kinds: ``bipoly`` (two-variable coefficients, lifted), ``indicator``
    (disk or rectangle region), ``delta`` (one jet at one point), ``table``
    (values and jets listed explicitly; anything omitted is zero).
    """
    kind = data.get("kind")
    if kind == "bipoly":
        return ctx.lift(BiPoly.from_list(data["coeffs"]))
    if kind == "indicator":
        return ctx.indicator(region_from_dict(data["region"]))
    if kind == "delta":
        at = data["at"]
        if at and isinstance(at[0], (list, tuple)):
            point = (complex(at[0][0], at[0][1]), complex(at[1][0], at[1][1]))
        else:
            point = complex(at[0], at[1])
        return ctx.delta(point, Jet.from_dict(data["jet"]))
    if kind == "table":
        cs = ctx.cs
        fn = ctx.zero()
        values = np.array(fn.values)
        rows = data.get("values", [])
        zs = np.array([complex(row["z"][0], row["z"][1]) for row in rows], dtype=complex)
        for i, idx in enumerate(match_points(zs, cs.noncritical, cs.radius)):
            if idx is None:
                raise DomainMismatchError(f"{zs[i]} is not a noncritical spectral point")
            values[idx] = complex(rows[i]["value"][0], rows[i]["value"][1])
        crit = list(fn.crit_jets)
        for row in data.get("crit", []):
            z = complex(row["z"][0], row["z"][1])
            i = cs.crit_index(z)
            jet = Jet.from_dict(row["jet"])
            if jet.shape != cs.crit[i].shape:
                raise ShapeMismatchError(f"jet at {z} must have shape {cs.crit[i].shape}")
            crit[i] = jet
        zi = list(fn.zi_jets)
        for row in data.get("zi", []):
            zw = (
                complex(row["zw"][0][0], row["zw"][0][1]),
                complex(row["zw"][1][0], row["zw"][1][1]),
            )
            i = cs.zi_index(zw)
            jet = Jet.from_dict(row["jet"])
            if jet.shape != cs.zi[i].shape:
                raise ShapeMismatchError(f"jet at {zw} must have shape {cs.zi[i].shape}")
            zi[i] = jet
        return CalculusFunction(cs, values, crit, zi)
    raise DomainMismatchError(f"unknown function kind {kind!r}")

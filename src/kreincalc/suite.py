"""Property-suite runner: checks every structural identity of an instance.

Each property records the identity it checks (the anchor), the measured
residual, and the threshold it must stay under; a report passes when every
property does. Thresholds are relative to the norms entering each identity.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass

import numpy as np

from .bipoly import BiPoly
from .calculus import CalculusContext, CalculusFunction, Disk, RegionUnion
from .cluster import match_points
from .instances import Instance
from .spectral import diagonalize, snap_eigenvalues, spectral_integral
from .tol import fro

__all__ = ["PropertyResult", "Report", "run_suite"]


@dataclass(frozen=True)
class PropertyResult:
    name: str
    anchor: str
    residual: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.threshold

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "anchor": self.anchor,
            "residual": self.residual,
            "threshold": self.threshold,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class Report:
    instance: str
    properties: tuple
    elapsed_ms: float

    @property
    def passed(self) -> bool:
        return all(p.passed for p in self.properties)

    def to_json(self) -> dict:
        return {
            "instance": self.instance,
            "properties": [p.to_json() for p in self.properties],
            "elapsed_ms": self.elapsed_ms,
        }

    def to_text(self) -> str:
        lines = [f"instance {self.instance}"]
        for p in self.properties:
            mark = "pass" if p.passed else "FAIL"
            lines.append(
                f"  [{mark}] {p.name:34s} {p.anchor:44s} "
                f"residual {p.residual:9.2e}  threshold {p.threshold:9.2e}"
            )
        lines.append(f"verdict: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _norm2(M):
    return float(np.linalg.norm(M, 2)) if M.size else 0.0


def _random_commuting(ctx, rng):
    A, B = ctx.pair.A, ctx.pair.B
    c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    n = A.shape[0]
    return c[0] * np.eye(n) + c[1] * A + c[2] * B + c[3] * (A @ B)


def embedding_properties(ctx: CalculusContext, rng) -> list:
    pair, bundle, tol = ctx.pair, ctx.bundle, ctx.tol
    out = []

    def prop(name, anchor, resid, thr):
        out.append(PropertyResult(name, anchor, float(resid), float(thr)))

    for name, resid, thr in bundle.report:
        slug = re.sub(r"[^a-z0-9]+", "-", name.lower()).strip("-")
        prop("bundle/" + slug, name, resid, thr)

    tests = [pair.N, ctx.space.adjoint(pair.N)]
    tests += [_random_commuting(ctx, rng) for _ in range(2)]
    ttv = bundle.tt_on_v()
    for j in (1, 2):
        rr = bundle.rr(j)
        worst_inter = worst_comp = 0.0
        scale = 1.0
        for C in tests:
            th = bundle.compress(C)
            thj = bundle.compress_part(C, j)
            Rj = bundle.r_part(j)
            mid = Rj @ thj @ Rj.conj().T
            worst_inter = max(
                worst_inter, fro(th @ rr - mid), fro(mid - rr @ th)
            )
            worst_comp = max(worst_comp, fro(thj - bundle.part_from_full(th, j)))
            scale = max(scale, fro(th), fro(thj))
        prop(
            f"transfer-intertwine-{j}",
            f"Th(C) R{j}R{j}* = R{j} Th{j}(C) R{j}* = R{j}R{j}* Th(C)",
            worst_inter,
            tol.rel * scale,
        )
        prop(
            f"transfer-compose-{j}",
            f"Th{j}(C) = (restriction to V{j}) of Th(C)",
            worst_comp,
            tol.rel * scale,
        )

    thA = bundle.compress(pair.A)
    thB = bundle.compress(pair.B)
    pth = pair.p.of_matrix(thA)
    qth = pair.q.of_matrix(thB)
    total = pth + qth
    s = max(1.0, fro(total))
    prop(
        "definitizer-split-1",
        "p(Th(A)) = R1R1* (p(Th(A)) + q(Th(B)))",
        fro(pth - bundle.rr(1) @ total),
        tol.rel * s,
    )
    prop(
        "definitizer-split-2",
        "q(Th(B)) = R2R2* (p(Th(A)) + q(Th(B)))",
        fro(qth - bundle.rr(2) @ total),
        tol.rel * s,
    )
    for j in (1, 2):
        lhs = bundle.compress(bundle.ttstar_part(j))
        prop(
            f"gram-transfer-{j}",
            f"Th(T{j}T{j}*) = R{j}R{j}* T*T",
            fro(lhs - bundle.rr(j) @ ttv),
            tol.rel * max(1.0, fro(ttv)),
        )

    C1, C2 = tests[2], tests[3]
    th1, th2 = bundle.compress(C1), bundle.compress(C2)
    s12 = max(1.0, fro(th1) * fro(th2))
    prop(
        "transfer-multiplicative",
        "Th(C1 C2) = Th(C1) Th(C2)",
        fro(bundle.compress(C1 @ C2) - th1 @ th2),
        tol.rel * s12,
    )
    prop(
        "transfer-involutive",
        "Th(C*) = Th(C)^H",
        fro(bundle.compress(ctx.space.adjoint(C1)) - th1.conj().T),
        tol.rel * max(1.0, fro(th1)),
    )
    prop(
        "transfer-unital",
        "Th(I) = I",
        fro(bundle.compress(np.eye(ctx.space.n)) - np.eye(bundle.dim_v)),
        tol.rel,
    )

    sigma = ctx.spectral.eigenvalues
    worst = 0.0
    for j in (1, 2):
        thj = bundle.compress_part(pair.N, j)
        for mu in diagonalize(thj, tol).eigenvalues:
            if sigma:
                worst = max(worst, min(abs(mu - lam) for lam in sigma))
            elif abs(mu) > worst:
                worst = abs(mu)
    prop(
        "spectrum-containment",
        "spec(Th_j(N)) inside spec(Th(N))",
        worst,
        3 * ctx.cs.radius,
    )
    return out


def spectral_properties(ctx: CalculusContext, rng) -> list:
    pair, bundle, data, cs, tol = ctx.pair, ctx.bundle, ctx.spectral, ctx.cs, ctx.tol
    p, q = pair.p, pair.q
    out = []

    def prop(name, anchor, resid, thr):
        out.append(PropertyResult(name, anchor, float(resid), float(thr)))

    r = bundle.dim_v
    points = data.points
    prop(
        "measure-resolution",
        "sum E = I, E orthogonal idempotents",
        data.resolution_residual(),
        tol.rel * max(1.0, np.sqrt(r)),
    )
    thN = bundle.compress(pair.N)
    worst = max(
        (fro(thN @ P - lam * P) for lam, P in points), default=0.0
    )
    # snapping onto critical points may move an eigenvalue by one radius
    prop(
        "measure-eigen",
        "Th(N) E{z} = z E{z}",
        worst,
        max(tol.spec * max(1.0, fro(thN)), 3 * cs.radius * max(1.0, np.sqrt(r))),
    )
    ttv = bundle.tt_on_v()
    worst = 0.0
    for _, P in points:
        for S in (bundle.rr(1), bundle.rr(2), ttv):
            worst = max(worst, fro(P @ S - S @ P))
    prop(
        "measure-commutant",
        "E{z} commutes with R1R1*, R2R2*, T*T",
        worst,
        tol.spec * max(1.0, fro(ttv)),
    )

    n1 = _norm2(bundle.rr(1))
    n2 = _norm2(bundle.rr(2))
    pq_scale = max(
        [1.0]
        + [abs(p(z.real)) + abs(q(z.imag)) for z in data.eigenvalues]
    )
    worst = 0.0
    for z in data.eigenvalues:
        pv, qv, sv = p(z.real), q(z.imag), p(z.real) + q(z.imag)
        worst = max(worst, abs(pv) - n1 * abs(sv), abs(qv) - n2 * abs(sv))
        if abs(sv) <= tol.spec * pq_scale:
            worst = max(worst, abs(pv), abs(qv))
    prop(
        "spectral-bounds",
        "|p| <= |R1R1*||p+q|, |q| <= |R2R2*||p+q| on spec(Th(N))",
        worst,
        tol.spec * pq_scale,
    )

    noncrit_e = np.zeros((r, r), dtype=complex)
    ratio1 = np.zeros((r, r), dtype=complex)
    ratio2 = np.zeros((r, r), dtype=complex)
    crit_values = set(cs.crit_values)
    for lam, P in points:
        if lam in crit_values:
            continue
        noncrit_e += P
        sv = p(lam.real) + q(lam.imag)
        ratio1 += (p(lam.real) / sv) * P
        ratio2 += (q(lam.imag) / sv) * P
    s = max(1.0, n1 + n2)
    prop(
        "measure-weighted-1",
        "R1R1* E(noncrit) = int p/(p+q) dE",
        fro(bundle.rr(1) @ noncrit_e - ratio1),
        tol.spec * s,
    )
    prop(
        "measure-weighted-2",
        "R2R2* E(noncrit) = int q/(p+q) dE",
        fro(bundle.rr(2) @ noncrit_e - ratio2),
        tol.spec * s,
    )

    h = {lam: complex(c[0], c[1]) for lam, c in zip(
        data.eigenvalues, rng.standard_normal((max(len(points), 1), 2))
    )}
    int_h = spectral_integral(data, h) if points else np.zeros((0, 0), complex)
    for j in (1, 2):
        thj = bundle.compress_part(pair.N, j)
        dataj = diagonalize(thj, tol)
        if dataj.centers:
            dataj = snap_eigenvalues(dataj, list(data.eigenvalues), cs.radius)
        worst_proj = 0.0
        for lam, P in points:
            gamma = bundle.part_from_full(P, j)
            worst_proj = max(worst_proj, fro(gamma - dataj.projection(lam)))
        prop(
            f"measure-transfer-{j}",
            f"restriction of E{{z}} to V{j} is E{j}{{z}}",
            worst_proj,
            tol.spec,
        )
        if points:
            hits = match_points(dataj.eigenvalues, data.eigenvalues, cs.radius)
            int_hj = None
            if None not in hits:
                hj = {mu: h[data.eigenvalues[i]] for mu, i in zip(dataj.eigenvalues, hits)}
                int_hj = spectral_integral(dataj, hj)
            hs = max(1.0, max(abs(v) for v in h.values()))
            if int_hj is None:
                prop(f"integral-transfer-{j}", "restriction of int h dE", 1.0, tol.spec)
            else:
                prop(
                    f"integral-transfer-{j}",
                    f"restriction of (int h dE) to V{j} = int h dE{j}",
                    fro(bundle.part_from_full(int_h, j) - int_hj),
                    tol.spec * hs,
                )
                prop(
                    f"integral-expand-{j}",
                    f"T{j} (int h dE{j}) T{j}* = T (R{j}R{j}* int h dE) T*",
                    fro(
                        bundle.expand_part(int_hj, j)
                        - bundle.expand(bundle.rr(j) @ int_h)
                    ),
                    tol.spec * hs * max(1.0, bundle.scale),
                )
    return out


def _random_bipoly(rng, dz=2, dw=2):
    c = rng.standard_normal((dz + 1, dw + 1)) + 1j * rng.standard_normal((dz + 1, dw + 1))
    return BiPoly({(k, l): c[k, l] for k in range(dz + 1) for l in range(dw + 1)})


def _with_random_jets(ctx, fn, rng, jets):
    """``fn`` plus random entries in the given jets, drawn jet after jet,
    real parts before imaginary parts."""
    coords = fn.coords.copy()
    for j in jets:
        seg = ctx.layout.segment(j)
        size = seg.stop - seg.start
        coords[seg] += rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return CalculusFunction(ctx.cs, coords)


def _random_function(ctx, rng):
    fn = ctx.lift(_random_bipoly(rng))
    return _with_random_jets(ctx, fn, rng, range(len(ctx.layout.shapes)))


def calculus_properties(ctx: CalculusContext, rng) -> list:
    pair, cs, tol = ctx.pair, ctx.cs, ctx.tol
    out = []

    def prop(name, anchor, resid, thr):
        out.append(PropertyResult(name, anchor, float(resid), float(thr)))

    phi = _random_function(ctx, rng)
    psi = _random_function(ctx, rng)
    phi_n = ctx.apply(phi)
    psi_n = ctx.apply(psi)
    s_ops = (1.0 + fro(phi_n)) * (1.0 + fro(psi_n))

    al, be = complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2))
    prop(
        "calculus-linear",
        "(a phi + b psi)(N) = a phi(N) + b psi(N)",
        fro(ctx.apply(al * phi + be * psi) - (al * phi_n + be * psi_n)),
        tol.spec * s_ops,
    )
    prop(
        "calculus-multiplicative",
        "(phi psi)(N) = phi(N) psi(N)",
        fro(ctx.apply(phi * psi) - phi_n @ psi_n),
        tol.spec * s_ops,
    )
    prop(
        "calculus-involutive",
        "(phi#)(N) = phi(N)*",
        fro(ctx.apply(phi.sharp()) - ctx.space.adjoint(phi_n)),
        tol.spec * s_ops,
    )
    prop(
        "calculus-unital",
        "1(N) = I",
        fro(ctx.apply(ctx.one()) - np.eye(ctx.space.n)),
        tol.spec,
    )

    s0 = _random_bipoly(rng, 2, 2)
    prop(
        "polynomial-compatible",
        "s(N) = s(A, B) for polynomial functions",
        fro(ctx.apply(ctx.lift(s0)) - ctx.polynomial_at_pair(s0)),
        tol.spec * max(1.0, fro(ctx.polynomial_at_pair(s0))),
    )

    pz = BiPoly.from_univariate(pair.p, "z")
    qw = BiPoly.from_univariate(pair.q, "w")
    phi2 = ctx._zero_off_support(phi)
    s, g_vals, g_pairs = ctx.decompose(phi2)
    base = ctx.apply_decomposition(s, g_vals, g_pairs)
    worst = 0.0
    scale = 1.0 + fro(base)
    for _ in range(5):
        u = _random_bipoly(rng, 1, 1)
        v = _random_bipoly(rng, 1, 1)
        s2 = s + pz * u + qw * v
        g2_vals, g2_pairs = ctx.remainder(phi2, s2)
        alt = ctx.apply_decomposition(s2, g2_vals, g2_pairs)
        worst = max(worst, fro(alt - base))
        scale = max(scale, 1.0 + fro(ctx.polynomial_at_pair(s2)))
    prop(
        "calculus-welldef",
        "phi(N) independent of the interpolant choice",
        worst,
        tol.spec * scale,
    )

    off_support = np.flatnonzero(~ctx.layout.supported)
    vanishing = _with_random_jets(ctx, ctx.zero(), rng, off_support)
    anchor = "phi = 0 on sigma_N implies phi(N) = 0"
    if off_support.size:
        prop(
            "support-vanishing",
            anchor,
            fro(ctx.apply(vanishing)),
            tol.spec * (1.0 + vanishing.norm()),
        )
    else:
        prop("support-vanishing", anchor + " (no off-support points)", 0.0, tol.spec)

    direct = np.linalg.eigvals(pair.N)
    formula = ctx.spectrum()
    worst = 0.0
    for z in direct:
        worst = max(worst, min((abs(z - f) for f in formula), default=abs(z)))
    for f in formula:
        worst = max(worst, min((abs(z - f) for z in direct), default=abs(f)))
    prop(
        "spectrum-formula",
        "sigma(N) = spec(Th(N)) + surviving critical and pair points",
        worst,
        tol.spec * (1.0 + max((abs(z) for z in formula), default=0.0)),
    )

    layout = ctx.layout
    values = list(phi.values) + list(phi.coords[layout.unit[layout.supported]])
    worst = 0.0
    for lam in np.linalg.eigvals(phi_n):
        worst = max(worst, min((abs(lam - v) for v in values), default=abs(lam)))
    prop(
        "spectrum-inclusion",
        "sigma(phi(N)) inside closure of phi's leading values",
        worst,
        tol.spec * (1.0 + fro(phi_n)),
    )

    _projection_properties(ctx, prop)

    lam0 = max((abs(z) for z in cs.support_values()), default=0.0) + 2.0
    shift = ctx.lift(
        BiPoly.variable("z") + 1j * BiPoly.variable("w") - BiPoly.constant(lam0)
    )
    rep = ctx.check_invertible(shift)
    prop(
        "resolvent-invertible",
        "(N - lambda) invertible for lambda off the spectrum",
        0.0 if rep.invertible else 1.0,
        0.5,
    )
    if rep.invertible:
        prop(
            "resolvent-certificate",
            "phi^{-1}(N) phi(N) = I",
            rep.certificate_residual,
            tol.spec * max(1.0, lam0 + fro(pair.N)) ** 2,
        )
    return out


def _projection_properties(ctx: CalculusContext, prop):
    pair, cs, tol = ctx.pair, ctx.cs, ctx.tol
    points = list(cs.support_values())
    margin = tol.boundary_margin(max((abs(z) for z in points), default=0.0))
    if len(points) >= 2:
        gap = min(
            abs(a - b) for i, a in enumerate(points) for b in points[i + 1:]
        )
    else:
        gap = 1.0
    radius = min(0.45 * gap, 0.5)
    n = ctx.space.n
    eye = np.eye(n)

    usable = radius > 10 * margin and points
    if usable:
        disks = [Disk(z, radius) for z in points]
        projs = [ctx.spectral_projection(d) for d in disks]
        scale = max(1.0, max(fro(P) for P in projs))
        worst_idem = max(fro(P @ P - P) for P in projs)
        worst_sa = max(fro(ctx.space.adjoint(P) - P) for P in projs)
        worst_comm = max(fro(P @ pair.N - pair.N @ P) for P in projs)
        worst_disjoint = 0.0
        for i in range(len(projs)):
            for j in range(i + 1, len(projs)):
                worst_disjoint = max(worst_disjoint, fro(projs[i] @ projs[j]))
        total = ctx.spectral_projection(Disk(0.0, max(abs(z) for z in points) + 1.0))
        resid_total = fro(total - eye)
        if len(disks) >= 2:
            union = ctx.spectral_projection(RegionUnion((disks[0], disks[1])))
            resid_add = fro(union - projs[0] - projs[1])
        else:
            resid_add = 0.0
        s2 = scale**2
        prop("projection-idempotent", "P(D)^2 = P(D)", worst_idem, tol.spec * s2)
        prop("projection-selfadjoint", "P(D)* = P(D)", worst_sa, tol.spec * s2)
        prop(
            "projection-commutes",
            "P(D) N = N P(D)",
            worst_comm,
            tol.spec * scale * max(1.0, fro(pair.N)),
        )
        prop("projection-disjoint", "P(D1) P(D2) = 0 for disjoint regions", worst_disjoint, tol.spec * s2)
        prop("projection-additive", "P(D1 u D2) = P(D1) + P(D2)", resid_add, tol.spec * s2)
        prop("projection-total", "P(D) = I for D covering everything", resid_total, tol.spec * scale)

        worst_local = 0.0
        for c in cs.crit:
            if not (c.spectral or c.in_sigma_n):
                continue
            P = ctx.riesz_projection(c.value)
            if fro(P) < 0.5:
                continue
            U, sv, _ = np.linalg.svd(P)
            basis = U[:, sv > 0.5]
            comp = basis.conj().T @ pair.N @ basis
            for mu in np.linalg.eigvals(comp):
                worst_local = max(worst_local, abs(mu - c.value))
        prop(
            "riesz-localized",
            "N restricted to ran (e delta_z)(N) has spectrum {z}",
            worst_local,
            3 * cs.radius,
        )
    else:
        prop(
            "projection-skipped",
            "support too crowded for admissible regions at this tolerance",
            0.0,
            tol.spec,
        )


GROUPS = (
    ("embedding", embedding_properties),
    ("spectral", spectral_properties),
    ("calculus", calculus_properties),
)


def run_suite(instance: Instance, seed: int = None) -> Report:
    """Run every property group against one instance.

    The random draws inside the groups are seeded from the instance digest
    (or the explicit seed), so reports are reproducible.
    """
    start = time.perf_counter()
    digest = instance.digest()
    if seed is None:
        seed = int(digest[:8], 16)
    ctx = CalculusContext.build(instance.pair)
    props = []
    for gname, group in GROUPS:
        rng = np.random.default_rng(seed)
        for p in group(ctx, rng):
            props.append(
                PropertyResult(f"{gname}/{p.name}", p.anchor, p.residual, p.threshold)
            )
    elapsed = (time.perf_counter() - start) * 1000.0
    return Report(digest, tuple(props), elapsed)

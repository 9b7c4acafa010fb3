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
from .calculus import (
    BOUNDARY_FACTOR, CalculusContext, CalculusFunction, Disk, RegionUnion, idempotent_ranks
)
from .instances import Instance
from .spectral import snap_eigenvalues, spectral_integral
from .tol import fro, fro_each, norm2

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

    # test operators N, N*, C1, C2; the context holds the compressions of N.
    # Everything compressed onto V goes in one stack, the tests onto V_j in
    # one per space.
    tests = np.stack(
        [ctx.space.adjoint(pair.N)] + [_random_commuting(ctx, rng) for _ in range(2)]
    )
    C1, C2 = tests[1:]
    _, V1, V2 = bundle.coords
    more = [pair.A, pair.B, V1.T @ V1.F, V2.T @ V2.F, C1 @ C2, ctx.space.adjoint(C1)]
    on_v = bundle.compress(np.concatenate([tests, more, np.eye(ctx.space.n)[None]]))
    ths = np.concatenate([ctx.theta_n[None], on_v[:3]])
    thA, thB, gram1, gram2, th12, th1_adj, th_eye = on_v[3:]
    ttv = bundle.coords[0].TT
    for j in (1, 2):
        rr, Rj = bundle.coords[j].RR, bundle.coords[j].R
        thjs = np.concatenate([ctx.theta_parts[j - 1][0][None], bundle.compress(tests, j)])
        mid = Rj @ thjs @ Rj.conj().T
        worst_inter = max(
            fro_each(ths @ rr - mid).max(), fro_each(mid - rr @ ths).max()
        )
        worst_comp = fro_each(thjs - bundle.part_from_full(ths, j)).max()
        scale = max(1.0, fro_each(ths).max(), fro_each(thjs).max())
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

    pth = pair.p.of_matrix(thA)
    qth = pair.q.of_matrix(thB)
    total = pth + qth
    s = max(1.0, fro(total))
    prop(
        "definitizer-split-1",
        "p(Th(A)) = R1R1* (p(Th(A)) + q(Th(B)))",
        fro(pth - V1.RR @ total),
        tol.rel * s,
    )
    prop(
        "definitizer-split-2",
        "q(Th(B)) = R2R2* (p(Th(A)) + q(Th(B)))",
        fro(qth - V2.RR @ total),
        tol.rel * s,
    )
    for j, lhs in ((1, gram1), (2, gram2)):
        prop(
            f"gram-transfer-{j}",
            f"Th(T{j}T{j}*) = R{j}R{j}* T*T",
            fro(lhs - bundle.coords[j].RR @ ttv),
            tol.rel * max(1.0, fro(ttv)),
        )

    th1, th2 = ths[2:]
    s12 = max(1.0, fro(th1) * fro(th2))
    prop(
        "transfer-multiplicative",
        "Th(C1 C2) = Th(C1) Th(C2)",
        fro(th12 - th1 @ th2),
        tol.rel * s12,
    )
    prop(
        "transfer-involutive",
        "Th(C*) = Th(C)^H",
        fro(th1_adj - th1.conj().T),
        tol.rel * max(1.0, fro(th1)),
    )
    prop(
        "transfer-unital",
        "Th(I) = I",
        fro(th_eye - np.eye(bundle.dim_v)),
        tol.rel,
    )

    sigma = ctx.spectral.eigenvalues
    worst = 0.0
    for _, dataj in ctx.theta_parts:
        for mu in dataj.eigenvalues:
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
    P = data.projections()
    lams = np.array(data.eigenvalues, dtype=complex)
    prop(
        "measure-resolution",
        "sum E = I, E orthogonal idempotents",
        data.resolution_residual(),
        tol.rel * max(1.0, np.sqrt(r)),
    )
    thN = ctx.theta_n
    # snapping onto critical points may move an eigenvalue by one radius
    prop(
        "measure-eigen",
        "Th(N) E{z} = z E{z}",
        fro_each(thN @ P - lams[:, None, None] * P).max(initial=0.0),
        max(tol.spec * max(1.0, fro(thN)), 3 * cs.radius * max(1.0, np.sqrt(r))),
    )
    ttv = bundle.coords[0].TT
    S = np.stack([bundle.coords[1].RR, bundle.coords[2].RR, ttv])[None]
    prop(
        "measure-commutant",
        "E{z} commutes with R1R1*, R2R2*, T*T",
        fro_each(P[:, None] @ S - S @ P[:, None]).max(initial=0.0),
        tol.spec * max(1.0, fro(ttv)),
    )

    n1, n2 = (norm2(bundle.coords[j].RR) for j in (1, 2))
    pv, qv = p(lams.real), q(lams.imag)
    sv = pv + qv
    pq_scale = max([1.0] + (np.abs(pv) + np.abs(qv)).tolist())
    worst = 0.0
    for pz, qz, sz in zip(pv, qv, sv):
        worst = max(worst, abs(pz) - n1 * abs(sz), abs(qz) - n2 * abs(sz))
        if abs(sz) <= tol.spec * pq_scale:
            worst = max(worst, abs(pz), abs(qz))
    prop(
        "spectral-bounds",
        "|p| <= |R1R1*||p+q|, |q| <= |R2R2*||p+q| on spec(Th(N))",
        worst,
        tol.spec * pq_scale,
    )

    free = ~ctx.layout.critical
    noncrit_e = P[free].sum(axis=0)
    ratio1 = np.tensordot(pv[free] / sv[free], P[free], 1)
    ratio2 = np.tensordot(qv[free] / sv[free], P[free], 1)
    s = max(1.0, n1 + n2)
    prop(
        "measure-weighted-1",
        "R1R1* E(noncrit) = int p/(p+q) dE",
        fro(bundle.coords[1].RR @ noncrit_e - ratio1),
        tol.spec * s,
    )
    prop(
        "measure-weighted-2",
        "R2R2* E(noncrit) = int q/(p+q) dE",
        fro(bundle.coords[2].RR @ noncrit_e - ratio2),
        tol.spec * s,
    )

    k = len(lams)
    draws = rng.standard_normal((max(k, 1), 2))
    h = draws[:k, 0] + 1j * draws[:k, 1]
    int_h = spectral_integral(data, h)
    for j, (_, dataj) in enumerate(ctx.theta_parts, start=1):
        dataj, hits = snap_eigenvalues(dataj, data.eigenvalues, cs.radius)
        # E_j of the cluster of V_j pinned to each cluster of V (the last, if
        # several), zero where none is
        owner = {i: c for c, i in enumerate(hits)}
        owned = [i for i in range(k) if i in owner]
        Pj = np.zeros((k, dataj.dim, dataj.dim), dtype=complex)
        Pj[owned] = dataj.projections()[[owner[i] for i in owned]]
        # the restrictions of every E{z}, and of int h dE when it is compared
        transfer = k and None not in hits
        parts = bundle.part_from_full(np.concatenate([P, int_h[None]]) if transfer else P, j)
        prop(
            f"measure-transfer-{j}",
            f"restriction of E{{z}} to V{j} is E{j}{{z}}",
            fro_each(parts[:k] - Pj).max(initial=0.0),
            tol.spec,
        )
        if k and not transfer:
            prop(f"integral-transfer-{j}", "restriction of int h dE", 1.0, tol.spec)
        elif transfer:
            int_hj = spectral_integral(dataj, h[np.array(hits, dtype=int)])
            hs = max(1.0, float(np.abs(h).max()))
            prop(
                f"integral-transfer-{j}",
                f"restriction of (int h dE) to V{j} = int h dE{j}",
                fro(parts[k] - int_hj),
                tol.spec * hs,
            )
            prop(
                f"integral-expand-{j}",
                f"T{j} (int h dE{j}) T{j}* = T (R{j}R{j}* int h dE) T*",
                fro(bundle.expand(int_hj, j) - bundle.expand(bundle.coords[j].RR @ int_h)),
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

    # every random draw first, in the order the checks use them, then the
    # functions applied in one pass
    phi = _random_function(ctx, rng)
    psi = _random_function(ctx, rng)
    al, be = complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2))
    s0 = _random_bipoly(rng, 2, 2)
    # the coefficients of (u_i, v_i) for 5 alternative interpolants, in the
    # order of 10 calls _random_bipoly(rng, 1, 1): axes (i, u/v, re/im, k, l)
    draws = rng.standard_normal((5, 2, 2, 2, 2))
    alternatives = draws[:, :, 0] + 1j * draws[:, :, 1]
    L = ctx.layout
    off_support = np.flatnonzero(~L.supported)
    vanishing = _with_random_jets(ctx, ctx.zero(), rng, off_support)
    # the projections onto the noncritical values join the build's Riesz
    # idempotents of the supported jets: one idempotent per support point,
    # whose ranks must add up to n
    values = [CalculusFunction(cs, row) for row in np.eye(L.nvalues, L.size)]
    ops = ctx.apply_many(
        [phi, psi, al * phi + be * psi, phi * psi, phi.sharp(), ctx.one(), ctx.lift(s0), vanishing]
        + values
    )
    phi_n, psi_n, lin_n, prod_n, sharp_n, one_n, s0_n, vanishing_n = ops[:8]
    s_ops = (1.0 + fro(phi_n)) * (1.0 + fro(psi_n))

    prop(
        "calculus-linear",
        "(a phi + b psi)(N) = a phi(N) + b psi(N)",
        fro(lin_n - (al * phi_n + be * psi_n)),
        tol.spec * s_ops,
    )
    prop(
        "calculus-multiplicative",
        "(phi psi)(N) = phi(N) psi(N)",
        fro(prod_n - phi_n @ psi_n),
        tol.spec * s_ops,
    )
    prop(
        "calculus-involutive",
        "(phi#)(N) = phi(N)*",
        fro(sharp_n - ctx.space.adjoint(phi_n)),
        tol.spec * s_ops,
    )
    prop(
        "calculus-unital",
        "1(N) = I",
        fro(one_n - np.eye(ctx.space.n)),
        tol.spec,
    )

    ref = ctx.polynomial_at_pair(s0)
    prop(
        "polynomial-compatible",
        "s(N) = s(A, B) for polynomial functions",
        fro(s0_n - ref),
        tol.spec * max(1.0, fro(ref)),
    )

    worst, scale = _welldef(ctx, phi, phi_n, alternatives)
    prop(
        "calculus-welldef",
        "phi(N) independent of the interpolant choice",
        worst,
        tol.spec * scale,
    )

    anchor = "phi = 0 on sigma_N implies phi(N) = 0"
    if off_support.size:
        prop(
            "support-vanishing",
            anchor,
            fro(vanishing_n),
            tol.spec * (1.0 + vanishing.norm()),
        )
    else:
        prop("support-vanishing", anchor + " (no off-support points)", 0.0, tol.spec)

    E = np.concatenate([ops[8:], ctx.riesz])
    # the point of each idempotent, and phi's leading value there
    jets_at = np.array([*cs.crit_values, *(pt.location for pt in cs.zi)], dtype=complex)
    at = np.r_[cs.noncritical, jets_at[L.supported]]
    leading = np.r_[phi.values, phi.coords[L.unit[L.supported]]]
    prop(
        "spectrum-formula",
        "ranks of E_c add to n, (N - c)^rank E_c = 0",
        _nilpotent_certificate(pair.N, E, at, ctx.space.n),
        tol.spec,
    )
    prop(
        "spectrum-inclusion",
        "(phi(N) - phi(c))^rank E_c = 0",
        _nilpotent_certificate(phi_n, E, leading, ctx.space.n),
        tol.spec,
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


def _welldef(ctx: CalculusContext, phi, phi_n, alternatives):
    """``(residual, scale)`` of phi(N) from the interpolants ``s + h_i``
    against ``phi_n``, in one stacked pass: ``s`` the compiled interpolant of
    phi with its off-support pair jets zeroed as in ``apply_many``, ``h_i =
    p(z) u_i + q(w) v_i`` with the bidegree-(1, 1) coefficients of ``u_i``,
    ``v_i`` in ``alternatives[i]``. The weights and expansion of an apply
    must take ``lift(h_i)`` to ``h_i(A, B)``."""
    pair, L = ctx.pair, ctx.layout
    system, lift, at_pair, expansion = ctx._compiled
    x = phi.coords.copy()
    x[L.pairs_off] = 0.0
    sol = system.coefficients(x[L.grid_index])
    # z^(j + k) w^l takes p_j u_kl, and z^k w^(j + l) takes q_j v_kl
    pc, qc = pair.p.coeffs, pair.q.coeffs
    m = len(alternatives)
    h = np.zeros((m, max(pc.size + 1, 2), max(qc.size + 1, 2)), dtype=complex)
    for k in (0, 1):
        h[:, k:k + pc.size, :2] += pc[:, None] * alternatives[:, 0, k, None, :]
        h[:, :2, k:k + qc.size] += alternatives[:, 1, :, k, None] * qc
    w, g = ctx._weights(x, sol @ lift.T + ctx._lift_coords(h))
    # the monomials z^k w^l at (A, B) in (k, l) order
    n = ctx.space.n
    monomials = np.stack([np.eye(n), pair.B, pair.A, pair.A @ pair.B])
    u_at, v_at = (np.tensordot(alternatives[:, i].reshape(m, 4), monomials, 1) for i in (0, 1))
    p_at, q_at = pair.poly_values
    values = (sol @ at_pair).reshape(n, n) + p_at @ u_at + q_at @ v_at
    worst = fro_each(expansion(w, g) + values - phi_n).max()
    return worst, max(1.0 + fro(phi_n), 1.0 + fro_each(values).max())


def _nilpotent_certificate(X, E, centres, total=None) -> float:
    """The residual certifying that ``X - c`` is nilpotent on ``ran E`` for
    the idempotents ``E`` of a stack, ``c`` the centre of each: the worst
    ``||D E||_F / (max(1, ||D||_F) max(1, ||E||_F))`` with ``D = (X - c)^m``,
    ``m`` the rank of ``E``. Jordan structure cannot break it, and with ranks
    adding up to n it certifies the spectrum of X as the centres. Each
    idempotent of rank 0 adds 1, and ranks adding up to other than ``total``
    add the difference, so either fails any threshold below 1."""
    ranks = idempotent_ranks(E)
    worst = float(np.count_nonzero(ranks < 1))
    if total is not None:
        worst += abs(total - ranks.sum())
    eye = np.eye(X.shape[-1])
    for Ei, m, c in zip(E, ranks, centres):
        D = np.linalg.matrix_power(X - c * eye, max(int(m), 0))
        worst = max(worst, fro(D @ Ei) / (max(1.0, fro(D)) * max(1.0, fro(Ei))))
    return worst


def _projection_properties(ctx: CalculusContext, prop):
    pair, cs, tol = ctx.pair, ctx.cs, ctx.tol
    points = list(cs.support_values())
    margin = BOUNDARY_FACTOR * cs.radius
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
        regions = disks + [Disk(0.0, max(abs(z) for z in points) + 1.0)]
        if len(disks) >= 2:
            regions.append(RegionUnion((disks[0], disks[1])))
        ops = ctx.apply_many([ctx.indicator(d) for d in regions])
        projs, total = ops[: len(disks)], ops[len(disks)]
        scale = max(1.0, fro_each(projs).max())
        worst_idem = fro_each(projs @ projs - projs).max()
        worst_sa = max(fro(ctx.space.adjoint(P) - P) for P in projs)
        worst_comm = fro_each(projs @ pair.N - pair.N @ projs).max()
        i, j = np.triu_indices(len(projs), 1)
        worst_disjoint = fro_each(projs[i] @ projs[j]).max(initial=0.0)
        resid_total = fro(total - eye)
        if len(disks) >= 2:
            resid_add = fro(ops[len(disks) + 1] - projs[0] - projs[1])
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

        crit = np.flatnonzero(ctx.layout.supported[: len(cs.crit)])
        prop(
            "riesz-localized",
            "(N - c)^rank E_c = 0 at critical c",
            _nilpotent_certificate(pair.N, ctx.riesz[: crit.size], np.array(cs.crit_values)[crit]),
            tol.spec,
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


def run_suite(instance: Instance) -> Report:
    """Run every property group against one instance.

    The random draws inside the groups are seeded from the instance digest,
    so reports are reproducible.
    """
    start = time.perf_counter()
    digest = instance.digest()
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

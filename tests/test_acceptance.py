"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line; run with ``pytest -s tests/test_acceptance.py``
to see them. The random-instance criteria share one generated corpus.
"""

import time

import numpy as np
import pytest

from kreincalc import (
    BiPoly,
    BoundaryError,
    CalculusContext,
    Disk,
    JetShape,
    NotInvertibleError,
    NotNormalError,
    NotPsdError,
    RealPoly,
    ZeroGrid,
    parse_instance,
    spectral_integral,
)
from kreincalc.jets import A_KIND, B_KIND, convolve, invert
from kreincalc.suite import (
    calculus_properties,
    embedding_properties,
    spectral_properties,
)

from calculus_reference import euclidean_reduce, grid_jets, interpolate_jets
from conftest import FIXTURES, delta


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, detail


def test_criterion_1_worked_instance_w1():
    start = time.perf_counter()
    inst = parse_instance(FIXTURES / "w1.json")
    ctx = CalculusContext.build(inst.pair)
    b = ctx.bundle
    failures = []
    if not np.allclose(b.coords[1].RR, np.diag([0.5, 1.0]), atol=1e-12):
        failures.append("R1 R1* != diag(1/2, 1)")
    if not np.allclose(b.coords[2].RR, np.diag([0.5, 0.0]), atol=1e-12):
        failures.append("R2 R2* != diag(1/2, 0)")
    if not np.allclose(b.coords[1].RR + b.coords[2].RR, np.eye(2), atol=1e-12):
        failures.append("partition of identity fails")
    p, q = inst.pair.p, inst.pair.q
    z = np.array(ctx.spectral.centers)
    int1 = spectral_integral(ctx.spectral, p(z.real) / (p(z.real) + q(z.imag)))
    int2 = spectral_integral(ctx.spectral, q(z.imag) / (p(z.real) + q(z.imag)))
    if not np.allclose(int1, b.coords[1].RR, atol=1e-12):
        failures.append("weighted integral misses R1 R1*")
    if not np.allclose(int2, b.coords[2].RR, atol=1e-12):
        failures.append("weighted integral misses R2 R2*")
    P = ctx.spectral_projection(Disk(1 + 2j, 1.0))
    if not np.allclose(P, np.diag([1.0, 0.0]), atol=1e-12):
        failures.append("disk projection != diag(1, 0)")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f} s")
    report(1, not failures,
           f"W1 contractions, weighted integrals, disk projection ({elapsed*1e3:.0f} ms)"
           + ("; " + "; ".join(failures) if failures else ""))


def test_criterion_2_worked_instance_w2():
    start = time.perf_counter()
    inst = parse_instance(FIXTURES / "w2.json")
    ctx = CalculusContext.build(inst.pair)
    failures = []
    if ctx.bundle.dim_v != 0:
        failures.append("V is not zero-dimensional")
    out = ctx.apply(delta(ctx, 0.0, ctx.cs.crit[0].shape, [1.0, 1.0, 0.5, 0.0]))
    if not np.array_equal(out, np.eye(2) + inst.N):
        failures.append("exponential jet does not give I + N exactly")
    P = ctx.riesz_projection(0.0)
    if not np.array_equal(P, np.eye(2)):
        failures.append("point projection at 0 is not the identity")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f} s")
    report(2, not failures,
           f"W2 degenerate embedding, exponential jet, point projection ({elapsed*1e3:.0f} ms)"
           + ("; " + "; ".join(failures) if failures else ""))


def test_criterion_3_jet_algebra_laws():
    # the algebra on coefficient arrays; the box part of a kind-a jet is
    # the prefix its box shape holds
    rng = np.random.default_rng(2024)
    worst = 0.0
    checked = 0

    def nrm(x):
        return float(np.abs(x).max())

    for m in (1, 2, 3):
        for n in (1, 2, 3):
            for kind in (A_KIND, B_KIND):
                shape = JetShape(m, n, kind)
                box = shape.box()
                k = box.size
                e = np.zeros(shape.size, dtype=complex)
                e[shape.position(0, 0)] = 1.0
                e_box = np.zeros(k, dtype=complex)
                e_box[box.position(0, 0)] = 1.0
                for _ in range(500):
                    a, b, c = (
                        rng.standard_normal((3, shape.size))
                        + 1j * rng.standard_normal((3, shape.size))
                    )
                    ab = convolve(shape, a, b)
                    sab = 1.0 + nrm(a) * nrm(b)
                    worst = max(worst, nrm(ab - convolve(shape, b, a)) / sab)
                    worst = max(
                        worst,
                        nrm(convolve(shape, ab, c) - convolve(shape, a, convolve(shape, b, c)))
                        / (sab * max(1.0, nrm(c))),
                    )
                    worst = max(worst, nrm(convolve(shape, e, a) - a) / (1.0 + nrm(a)))
                    if abs(a[shape.position(0, 0)]) >= 1e-6:
                        inv = invert(shape, a)
                        worst = max(
                            worst,
                            nrm(convolve(shape, a, inv) - e) / (1.0 + nrm(a) * nrm(inv)),
                        )
                    if kind == A_KIND:
                        lhs = ab[:k]
                        rhs = convolve(box, a[:k], b[:k])
                        worst = max(worst, nrm(lhs - rhs) / sab)
                        worst = max(worst, nrm(a.conj()[:k] - a[:k].conj()))
                        if nrm(e[:k] - e_box) != 0.0:
                            worst = max(worst, 1.0)
                    checked += 1
    ok = worst <= 1e-10
    report(3, ok, f"jet algebra laws on {checked} random draws, worst residual {worst:.2e}")


def _separated_poly(rng, max_degree=4):
    degree = int(rng.integers(1, max_degree + 1))
    roots = []
    while len(roots) < degree:
        r = float(rng.uniform(-2.0, 2.0))
        if all(abs(r - s) > 0.35 for s in roots):
            roots.append(r)
            if degree - len(roots) >= 1 and rng.random() < 0.25:
                roots.append(r)  # double root
    p = RealPoly([1.0])
    for r in roots[:degree]:
        p = p * RealPoly([-r, 1.0])
    return p


def test_criterion_4_polynomial_round_trips():
    rng = np.random.default_rng(4096)
    worst_euclid = worst_interp = 0.0
    for _ in range(200):
        a = _separated_poly(rng)
        b = _separated_poly(rng)
        s = BiPoly(
            {
                (k, l): complex(*rng.standard_normal(2))
                for k in range(5)
                for l in range(5)
            }
        )
        u, v, r = euclidean_reduce(s, a, b)
        za = BiPoly.from_dense(a.coeffs[:, None])
        wb = BiPoly.from_dense(b.coeffs[None, :])
        back = za * u + wb * v + r
        scale = max(
            np.abs(s.dense()).max(),
            np.sum(np.abs(a.coeffs)) * np.abs(u.dense()).max(),
            np.sum(np.abs(b.coeffs)) * np.abs(v.dense()).max(),
            1.0,
        )
        diff = back - s
        worst_euclid = max(worst_euclid, np.abs(diff.dense()).max() / scale)

        grid = ZeroGrid.from_polys(a, b)
        low = BiPoly(
            {
                (k, l): complex(*rng.standard_normal(2))
                for k in range(a.degree)
                for l in range(b.degree)
            }
        )
        rec = interpolate_jets(grid_jets(low, grid), grid)
        worst_interp = max(
            worst_interp,
            np.abs((rec - low).dense()).max() / max(1.0, np.abs(low.dense()).max()),
        )
    ok = worst_euclid <= 1e-10 and worst_interp <= 1e-10
    report(
        4,
        ok,
        f"200 division and interpolation round trips, worst residuals "
        f"{worst_euclid:.2e} / {worst_interp:.2e}",
    )


def _run_group(contexts, group):
    results = []
    for ctx in contexts:
        rng = np.random.default_rng(20240817)
        results.extend(group(ctx, rng))
    bad = [p for p in results if not p.passed]
    worst = max((p.residual / p.threshold for p in results if p.threshold), default=0.0)
    return results, bad, worst


def test_criterion_5_embedding_suite(contexts100):
    start = time.perf_counter()
    results, bad, worst = _run_group(contexts100, embedding_properties)
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 30.0
    report(
        5,
        ok,
        f"embedding identities on 100 instances: {len(results)} checks, "
        f"worst margin {worst:.1e}, {elapsed:.1f} s",
    )


def test_criterion_6_spectral_suite(contexts100):
    results, bad, worst = _run_group(contexts100, spectral_properties)
    ok = not bad
    report(
        6,
        ok,
        f"spectral-measure identities on 100 instances: {len(results)} checks, "
        f"worst margin {worst:.1e}",
    )


def test_criterion_7_calculus_suite(contexts100):
    start = time.perf_counter()
    results, bad, worst = _run_group(contexts100, calculus_properties)
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 120.0
    report(
        7,
        ok,
        f"calculus identities on 100 instances: {len(results)} checks, "
        f"worst margin {worst:.1e}, {elapsed:.1f} s",
    )


def test_criterion_8_designated_errors(w1, w2_ctx):
    failures = []
    with pytest.raises(NotNormalError):
        parse_instance(
            {
                "J": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                "N": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]],
            }
        )
    bad = w1.to_json()
    bad["q"] = [-3.0, 1.0]
    with pytest.raises(NotPsdError):
        parse_instance(bad)
    with pytest.raises(BoundaryError):
        w2_ctx.spectral_projection(Disk(0.5, 0.5))
    with pytest.raises(NotInvertibleError):
        invert(JetShape(2, 2, A_KIND), np.arange(6, dtype=complex))
    report(
        8,
        True,
        "non-normal, non-definitizing, boundary-touching, and "
        "non-invertible inputs raise their designated errors",
    )

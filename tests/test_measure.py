"""The suite's measure checks, derived from the factored measure (``Q`` and
its cluster labels), against the dense projection products they bound
(``spectral_reference.dense_measure_residuals``)."""

from dataclasses import replace

import numpy as np
import pytest

from kreincalc import CalculusContext, generate, parse_instance
from kreincalc.suite import spectral_properties
from kreincalc.tol import fro, fro_each

from conftest import PROFILES, load_recipe
from spectral_reference import dense_measure_residuals

# name -> anchor, in report order
MEASURE = {
    "measure-resolution": "sum E = I, E orthogonal idempotents",
    "measure-eigen": "Th(N) E{z} = z E{z}",
    "measure-commutant": "E{z} commutes with R1R1*, R2R2*, T*T",
    "measure-weighted-1": "R1R1* E(noncrit) = int p/(p+q) dE",
    "measure-weighted-2": "R2R2* E(noncrit) = int q/(p+q) dE",
    "measure-transfer-1": "restriction of E{z} to V1 is E1{z}",
    "measure-transfer-2": "restriction of E{z} to V2 is E2{z}",
}
EPS = np.finfo(float).eps


class ZeroDraws:
    """An rng whose draws are all 0, so ``int h dE = 0``: the integral
    checks that follow the measure checks cannot raise on a mutated
    measure, and the measure checks do not read the draws."""

    def standard_normal(self, shape):
        return np.zeros(shape)


def measure(ctx, rng=None):
    """The seven measure properties of ``spectral_properties``, by name."""
    props = spectral_properties(ctx, rng or np.random.default_rng(0))
    return {p.name: p for p in props if p.name in MEASURE}


def rounding(ctx, name) -> float:
    """The rounding of a dense residual: 4 r eps times the norm of the
    operator the projections meet in it."""
    bundle = ctx.bundle
    if name == "measure-eigen":
        scale = fro(ctx.theta_n)
    elif name == "measure-commutant":
        S = np.stack([bundle.coords[1].RR, bundle.coords[2].RR, bundle.coords[0].TT])
        scale = fro_each(S).max()
    else:
        scale = 1.0
    return 4 * max(1, bundle.dim_v) * EPS * max(1.0, scale)


def instances(family):
    if family == "recipe":
        recipe = load_recipe()
        return [parse_instance(recipe.instance(s, n, 2)[0]) for n in (12, 24, 48) for s in range(3)]
    return [generate(s, 2 + s % 11, family) for s in range(60)]


@pytest.mark.parametrize("family", [*PROFILES, "recipe"])
def test_derived_residuals_bound_the_dense_ones(family):
    for inst in instances(family):
        ctx = CalculusContext.build(inst.pair)
        derived = measure(ctx)
        dense = dense_measure_residuals(ctx)
        assert derived.keys() == dense.keys()
        for name, prop in derived.items():
            assert prop.residual >= dense[name] - rounding(ctx, name), (inst.label, name)
            assert prop.passed, (inst.label, name, prop.residual, prop.threshold)


def test_measure_properties_keep_their_order_and_anchors():
    ctx = CalculusContext.build(generate(7, 9, "pontryagin").pair)
    props = spectral_properties(ctx, np.random.default_rng(0))
    assert [p.name for p in props] == [
        *list(MEASURE)[:3], "spectral-bounds", *list(MEASURE)[3:6],
        "integral-transfer-1", "integral-expand-1",
        "measure-transfer-2", "integral-transfer-2", "integral-expand-2",
    ]
    assert {p.name: p.anchor for p in props if p.name in MEASURE} == MEASURE


# -- mutations: each one fails the derived entry, as it fails the dense one


@pytest.fixture
def ctx():
    ctx = CalculusContext.build(generate(7, 9, "diagonal").pair)
    assert len(ctx.spectral.centers) >= 2
    assert all(len(data.centers) >= 2 for _, data in ctx.theta_parts)
    return ctx


def columns(data, cluster):
    return np.flatnonzero(data.labels == cluster)


def assert_fails_both(ctx, name):
    prop = measure(ctx, ZeroDraws())[name]
    assert not prop.passed
    assert dense_measure_residuals(ctx)[name] > prop.threshold


def test_non_orthogonal_clusters_fail_the_resolution(ctx):
    data = ctx.spectral
    a, b = columns(data, 0)[0], columns(data, 1)[0]
    Q = data.Q.copy()
    Q[:, b] += 1e-8 * Q[:, a]
    ctx.spectral = replace(data, Q=Q)
    assert_fails_both(ctx, "measure-resolution")


def test_th_n_perturbed_inside_a_cluster_fails_the_eigen_check(ctx):
    Qi = ctx.spectral.Q[:, columns(ctx.spectral, 1)]
    ctx.theta_n = ctx.theta_n + 1e-4 * (Qi @ Qi.conj().T)
    assert_fails_both(ctx, "measure-eigen")


def test_off_block_perturbation_of_tt_fails_the_commutant(ctx):
    data = ctx.spectral
    qa, qb = data.Q[:, columns(data, 0)[0]], data.Q[:, columns(data, 1)[0]]
    K = np.outer(qa, qb.conj())
    V = ctx.bundle.coords[0]
    TT = V.TT + 1e-6 * V.tt_norm * (K + K.conj().T)
    coords = (replace(V, TT=TT), *ctx.bundle.coords[1:])
    ctx.bundle = replace(ctx.bundle, coords=coords)
    assert_fails_both(ctx, "measure-commutant")


@pytest.mark.parametrize("j", [1, 2])
def test_swapped_labels_of_v_j_fail_the_transfer(ctx, j):
    parts = list(ctx.theta_parts)
    X, data = parts[j - 1]
    labels = data.labels.copy()
    labels[data.labels == 0], labels[data.labels == 1] = 1, 0
    parts[j - 1] = (X, replace(data, labels=labels))
    ctx.__dict__["theta_parts"] = tuple(parts)
    assert_fails_both(ctx, f"measure-transfer-{j}")

import json
from collections import Counter

import numpy as np
import pytest

from kreincalc import CalculusContext, Instance, NotPsdError, generate, parse_instance, run_suite
from kreincalc.embed import EmbeddingBundle

from conftest import FIXTURES, PROFILES, lattice_pair

WELLDEF = "calculus/calculus-welldef"


def welldef(report):
    return next(p for p in report.properties if p.name == WELLDEF)


def test_w1_all_pass_tightly(w1):
    report = run_suite(w1)
    assert report.passed
    assert max(p.residual for p in report.properties) < 1e-10


def test_w2_exercises_zero_dimensional_path(w2, w2_ctx):
    assert w2_ctx.bundle.dim_v == 0
    report = run_suite(w2)
    assert report.passed


def test_real_double_zero_times_quadratics():
    # q = (z + 3.5)^2 times two positive quadratics: its double zero once
    # came back as a nonreal pair at +-2.7e-6 i, the critical point at
    # -4.5 - 3.5i was lost and 1(N) missed I by 1.10 with no error raised
    inst = parse_instance(FIXTURES / "double_zero_quadratics.json")
    ctx = CalculusContext.build(inst.pair)
    [crit] = ctx.cs.crit
    assert abs(crit.value - (-4.5 - 3.5j)) <= 1e-9
    assert (crit.shape.m, crit.shape.n) == (2, 2)
    assert np.linalg.norm(ctx.apply(ctx.one()) - np.eye(inst.space.n)) <= 1e-8
    assert run_suite(inst).passed


def test_corrupted_instance_rejected_before_suite(w1):
    data = w1.to_json()
    data["q"] = [-3.0, 1.0]
    with pytest.raises(NotPsdError):
        parse_instance(data)


def test_report_schema(w1):
    report = run_suite(w1)
    payload = report.to_json()
    assert set(payload) == {"instance", "properties", "elapsed_ms"}
    for prop in payload["properties"]:
        assert set(prop) == {"name", "anchor", "residual", "threshold", "pass"}
    json.dumps(payload)  # serializable


def test_reports_are_reproducible(w1):
    r1 = run_suite(w1)
    r2 = run_suite(w1)
    strip = lambda rep: [
        (p.name, p.anchor, p.residual, p.threshold) for p in rep.properties
    ]
    assert strip(r1) == strip(r2)


def test_text_rendering(w1):
    text = run_suite(w1).to_text()
    assert "verdict: PASS" in text


def test_suite_compresses_n_once_per_space(monkeypatch):
    """build keeps Th(N), the context keeps (Th_j(N), its spectral data), and
    the property groups read them: one compression of N onto each of V, V1
    and V2 per run_suite, counted over the operators of every stack passed to
    compress. The stack onto V holds A and B, whose compressions are not of
    N even where B = 0 makes A equal to N, so those are not counted; where N
    is Krein-selfadjoint, the transfer checks' compressions of N* = N are."""
    counts = Counter()
    compress = EmbeddingBundle.compress

    def counting(bundle, C, j=0):
        C = np.asarray(C)
        for X in C.reshape((-1,) + C.shape[-2:]):
            counts[j] += np.array_equal(X, bundle.pair.N)
        return compress(bundle, C, j)

    monkeypatch.setattr(EmbeddingBundle, "compress", counting)
    for i in range(30):
        counts.clear()
        inst = generate(i, 2 + i % 11, PROFILES[i % 3])
        assert run_suite(inst).passed
        counts[0] -= sum(np.array_equal(X, inst.N) for X in (inst.pair.A, inst.pair.B))
        once = 1 + np.array_equal(inst.space.adjoint(inst.N), inst.N)
        assert counts == {0: once, 1: once, 2: once}, i


def test_welldef_catches_a_wrong_remainder(monkeypatch):
    """Remainder weights off by a factor 1 + 1e-3 make phi(N) depend on the
    interpolant: the alternatives s + p u + q v no longer reproduce
    p(A) u(A, B) + q(B) v(A, B)."""
    weights = CalculusContext._weights

    def planted(ctx, coords, lifted):
        w, g = weights(ctx, coords, lifted)
        return w * (1 + 1e-3), g * (1 + 1e-3)

    monkeypatch.setattr(CalculusContext, "_weights", planted)
    caught = sum(
        not welldef(run_suite(generate(i, 2 + i % 11, PROFILES[i % 3]))).passed
        for i in range(60)
    )
    assert caught >= 57


@pytest.mark.parametrize("seed", range(3))
def test_welldef_with_nonreal_zero_pairs(seed):
    """p and q each carry positive quadratic factors, so the zero grid has
    nonreal pairs, which the generator never makes: the box jets of every
    p u + q v vanish there, and the welldef check must see no more than
    rounding."""
    pair, _ = lattice_pair(seed, 12, ((0.25, 0.5), (-1.75, 1.0)))
    inst = Instance("lattice", pair.space, pair)
    report = run_suite(inst)
    assert report.passed
    prop = welldef(report)
    assert prop.residual <= 1e-3 * prop.threshold
    assert CalculusContext.build(pair).cs.zi

import dataclasses
from collections import Counter

import numpy as np
import pytest

from kreincalc import (
    CalculusContext,
    DefinitizablePair,
    KreinSpace,
    NotInCommutantError,
    NotPsdError,
    RealPoly,
    build_bundle,
    gram_factor,
    generate,
    parse_instance,
)
from kreincalc.embed import CoordinateSpace, verify_bundle
from kreincalc.tol import DEFAULT_TOL, fro

from conftest import FIXTURES, load_recipe



class TestGramFactor:
    def test_zero_gram(self):
        F, *_ = gram_factor(np.linalg.eigh(np.zeros((3, 3))), DEFAULT_TOL)
        assert F.shape == (0, 3)

    def test_full_rank(self):
        G = np.diag([2.0, 1.0]).astype(complex)
        F, *_ = gram_factor(np.linalg.eigh(G), DEFAULT_TOL)
        assert F.shape == (2, 2)
        assert np.allclose(F.conj().T @ F, G)
        # descending eigenvalue order
        assert abs(F[0, 0]) == pytest.approx(np.sqrt(2.0))

    def test_rank_deficient(self):
        F, *_ = gram_factor(np.linalg.eigh(np.diag([1.0, 0.0])), DEFAULT_TOL)
        assert F.shape == (1, 2)
        assert np.allclose(F.conj().T @ F, np.diag([1.0, 0.0]))

    def test_indefinite_rejected(self):
        with pytest.raises(NotPsdError):
            gram_factor(np.linalg.eigh(np.diag([1.0, -0.5])), DEFAULT_TOL)

    def test_random_psd_factors(self):
        rng = np.random.default_rng(30)
        for _ in range(25):
            n = rng.integers(1, 7)
            M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            G = M @ M.conj().T
            F, *_ = gram_factor(np.linalg.eigh(G), DEFAULT_TOL)
            assert np.allclose(F.conj().T @ F, G, atol=1e-10 * np.linalg.norm(G))


def test_each_definitizing_gram_is_decomposed_once(monkeypatch):
    # validate reads the smallest eigenvalues off the eigh that build_bundle
    # factors: parse + build decompose J p(A), J q(B) and their sum once each.
    # J is a signed permutation on both sources, so J is neither decomposed
    # nor inverted, and the norms of A and B are two eigvalsh of J A and J B.
    # Calls are counted under numpy.linalg's own names too, so an SVD that
    # np.linalg.norm(M, 2) or np.linalg.cond takes inside numpy is seen; the
    # one SVD is cond's, of the zero grid's interpolation matrix
    import numpy.linalg._linalg as linalg

    recipe = load_recipe()
    calls = Counter()
    names = ("eigh", "eigvalsh", "svd", "inv", "cond")
    for name in names:
        def counted(*args, _name=name, _f=getattr(linalg, name), **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
        monkeypatch.setattr(linalg, name, counted)
    for source in (FIXTURES / "w1.json", recipe.instance(3, 24, 2)[0]):
        calls.clear()
        inst = parse_instance(source)
        ctx = CalculusContext.build(inst.pair)
        assert inst.space.perm is not None, source
        counts = tuple(calls[name] for name in names)
        assert counts == (3, 2, 1, 0, 1), (source, counts)
        assert "definitizing_grams" not in vars(ctx.pair)


class TestBundleW1:
    def test_factors(self, w1_ctx):
        b = w1_ctx.bundle
        F, F1, F2 = (V.F for V in b.coords)
        assert np.allclose(F, np.diag([np.sqrt(2), 1.0]), atol=1e-14)
        assert np.allclose(F1, np.eye(2), atol=1e-14)
        assert np.allclose(F2, [[1.0, 0.0]], atol=1e-14)

    def test_contraction_grams(self, w1_ctx):
        b = w1_ctx.bundle
        assert np.allclose(b.coords[1].RR, np.diag([0.5, 1.0]), atol=1e-12)
        assert np.allclose(b.coords[2].RR, np.diag([0.5, 0.0]), atol=1e-12)
        assert np.allclose(b.coords[1].RR + b.coords[2].RR, np.eye(2), atol=1e-12)

    def test_injections(self, w1_ctx):
        b = w1_ctx.bundle
        V = b.coords[0]
        assert np.allclose(V.T, np.diag([np.sqrt(2), -1.0]), atol=1e-14)
        pA_qB = b.pair.p.of_matrix(b.pair.A) + b.pair.q.of_matrix(b.pair.B)
        assert np.allclose(V.T @ V.F, pA_qB, atol=1e-12)


class TestBundleW2:
    def test_everything_is_zero_dimensional(self, w2_ctx):
        b = w2_ctx.bundle
        assert [V.dim for V in b.coords] == [0, 0, 0]

    def test_transfers_short_circuit(self, w2_ctx):
        b = w2_ctx.bundle
        th = b.compress(b.pair.N)
        assert th.shape == (0, 0)
        assert np.allclose(b.expand(th), np.zeros((2, 2)))


class TestTransfers:
    def test_identity_to_identity(self, w1_ctx):
        b = w1_ctx.bundle
        assert np.allclose(b.compress(np.eye(2)), np.eye(2), atol=1e-12)

    def test_w1_compress_n(self, w1_ctx):
        b = w1_ctx.bundle
        assert np.allclose(b.compress(b.pair.N), np.diag([1 + 2j, -1 + 3j]), atol=1e-12)

    def test_gram_compresses_to_v_metric(self, w1_ctx):
        b = w1_ctx.bundle
        V = b.coords[0]
        assert np.allclose(b.compress(V.T @ V.F), V.TT, atol=1e-12)

    def test_part_compression_is_scalar(self, w1_ctx):
        b = w1_ctx.bundle
        th2 = b.compress(b.pair.N, 2)
        assert th2.shape == (1, 1)
        assert th2[0, 0] == pytest.approx(1 + 2j)

    def test_restriction_composes(self, w1_ctx):
        b = w1_ctx.bundle
        for j in (1, 2):
            lhs = b.compress(b.pair.N, j)
            rhs = b.part_from_full(b.compress(b.pair.N), j)
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_commutant_violation(self, w1_ctx):
        b = w1_ctx.bundle
        with pytest.raises(NotInCommutantError):
            b.compress(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_expand_identity(self, w1_ctx):
        b = w1_ctx.bundle
        pA_qB = b.pair.p.of_matrix(b.pair.A) + b.pair.q.of_matrix(b.pair.B)
        assert np.allclose(b.expand(np.eye(2)), pA_qB, atol=1e-12)

    def test_expand_w1_example(self, w1_ctx):
        b = w1_ctx.bundle
        out = b.expand(np.diag([0.5, 0.0]).astype(complex))
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)

    def test_part_expansion_factor(self, w1_ctx):
        b = w1_ctx.bundle
        for j in (1, 2):
            Dj = np.diag(1.0 + np.arange(b.coords[j].dim)).astype(complex)
            lhs = b.expand(Dj, j)
            R = b.coords[j].R
            rhs = b.expand(R @ Dj @ R.conj().T)
            assert np.allclose(lhs, rhs, atol=1e-12)


def commuting_operators(pair, rng, count):
    """Random combinations of I, A, B and AB: members of the commutant."""
    n = pair.A.shape[0]
    basis = np.stack([np.eye(n), pair.A, pair.B, pair.A @ pair.B])
    c = rng.standard_normal((count, 4)) + 1j * rng.standard_normal((count, 4))
    return np.tensordot(c, basis, 1)


def close(a, b):
    return np.linalg.norm(a - b) <= 1e-13 * max(1.0, np.linalg.norm(b))


class TestStacks:
    """The transfer maps on a stack of operators against one call each."""

    def test_stack_matches_one_call_each(self):
        rng = np.random.default_rng(64)
        for seed in range(12):
            inst = generate(seed, 3 + seed % 6, ("diagonal", "jordan", "pontryagin")[seed % 3])
            b = build_bundle(inst.pair)
            C = commuting_operators(inst.pair, rng, 4)
            for j in (0, 1, 2):
                X = b.compress(C, j)
                assert X.shape == (4, b.coords[j].dim, b.coords[j].dim)
                assert all(close(Xi, b.compress(Ci, j)) for Xi, Ci in zip(X, C))
                E = b.expand(X, j)
                assert all(close(Ei, b.expand(Xi, j)) for Ei, Xi in zip(E, X))
            th = b.compress(C.reshape(2, 2, *C.shape[1:]))
            assert th.shape[:2] == (2, 2)
            for j in (1, 2):
                Y = b.part_from_full(th, j)
                assert all(
                    close(Y[k, l], b.part_from_full(th[k, l], j))
                    for k in range(2) for l in range(2)
                )

    def test_one_non_commuting_operator_raises_with_its_residual(self, w1_ctx):
        b = w1_ctx.bundle
        C = commuting_operators(b.pair, np.random.default_rng(65), 3)
        C[1] = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(NotInCommutantError) as stacked:
            b.compress(C)
        with pytest.raises(NotInCommutantError) as alone:
            b.compress(C[1])
        S = b.coords[0].outer
        resid = np.linalg.norm(C[1] @ S - S @ C[1])
        assert f"residual {resid:.2e}" in str(stacked.value)
        assert str(stacked.value) == str(alone.value)

    def test_negligible_operator_maps_to_zero(self, w1_ctx):
        b = w1_ctx.bundle
        C = commuting_operators(b.pair, np.random.default_rng(66), 2)
        # far below the noise floor, and not in the commutant
        C[1] = 1e-30 * np.array([[0, 1], [0, 0]], dtype=complex)
        X = b.compress(C)
        assert np.array_equal(X[1], np.zeros((2, 2)))
        assert close(X[0], b.compress(C[0]))


@pytest.mark.parametrize(
    "j, name", [(0, "T T* = p(A) + q(B)"), (1, "T1 T1* = p(A)"), (2, "T2 T2* = q(B)")]
)
def test_gram_entries_check_the_factors(w1_ctx, j, name):
    b = w1_ctx.bundle
    coords = list(b.coords)
    coords[j] = dataclasses.replace(coords[j], F=2 * coords[j].F)
    report = verify_bundle(dataclasses.replace(b, coords=tuple(coords)))
    resid, bound = next((r, t) for n, r, t in report if n == name)
    assert resid > bound


def test_gram_entries_allow_what_the_rank_cut_drops():
    # p(A) = diag(1, 4.9e-9): the small eigenvalue is below the rank cut, so
    # T F misses p(A) by it, and the bound must admit that
    space = KreinSpace(np.eye(2))
    p = RealPoly([0.0, 0.0, 1.0])
    b = build_bundle(DefinitizablePair.from_normal(space, np.diag([1.0, 7e-5]), p, p))
    assert [V.dim for V in b.coords] == [1, 1, 0]
    resid, bound = next((r, t) for n, r, t in b.report if n == "T T* = p(A) + q(B)")
    assert 4e-9 < resid <= bound


BUNDLE_ENTRIES = [
    "T T* = p(A) + q(B)",
    "T1 T1* = p(A)",
    "T2 T2* = q(B)",
    "R1 R1* + R2 R2* = I",
    "T1 = T R1",
    "||R1|| <= 1",
    "R1 injective",
    "[R1 R1*, T* T] = 0",
    "[R1* R1, T1* T1] = 0",
    "T2 = T R2",
    "||R2|| <= 1",
    "R2 injective",
    "[R2 R2*, T* T] = 0",
    "[R2* R2, T2* T2] = 0",
]


def test_bundle_check_decomposes_no_matrix(monkeypatch):
    # the norm and injectivity of R_j are certified from the partition and
    # T_j = T R_j residuals: building the bundle takes no SVD
    pair = parse_instance(load_recipe().instance(3, 24)[0]).pair
    calls = Counter()

    def counted(*args, **kwargs):
        calls["svd"] += 1
        return svd(*args, **kwargs)

    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", counted)
    b = build_bundle(pair)
    assert calls["svd"] == 0
    assert [name for name, *_ in b.report] == BUNDLE_ENTRIES


class TestCertifiedEntries:
    """Each entry certified from other residuals fails on a w1 bundle whose
    V1 breaks the invariant it stands for."""

    @staticmethod
    def failing(b, V1):
        report = verify_bundle(dataclasses.replace(b, coords=(b.coords[0], V1, b.coords[2])))
        return {name for name, resid, bound in report if resid > bound}

    @pytest.mark.parametrize("keep_f1", [False, True])
    def test_a_dropped_column_is_not_injective(self, w1_ctx, keep_f1):
        # F1 = R1^H F keeps T1 = T R1 exact, so F1 loses the rank too; a
        # kept F1 is still injective, and only the T1 = T R1 residual the
        # bound subtracts can tell
        b = w1_ctx.bundle
        R1 = b.coords[1].R.copy()
        R1[:, 0] = 0.0
        F1 = b.coords[1].F if keep_f1 else R1.conj().T @ b.coords[0].F
        V1 = CoordinateSpace.of(F1, b.space, 0.0, R1)
        assert "R1 injective" in self.failing(b, V1)

    def test_a_scaled_contraction_is_not_a_contraction(self, w1_ctx):
        b = w1_ctx.bundle
        V1 = b.coords[1]
        V1 = CoordinateSpace.of(V1.F, b.space, V1.dropped, 1.01 * V1.R)
        assert {"R1 R1* + R2 R2* = I", "||R1|| <= 1"} <= self.failing(b, V1)

    def test_a_non_commuting_contraction(self, w1_ctx):
        # R1 is perturbed by a Hermitian 2x2 block that commutes neither with
        # T* T = diag(2, -1) nor, through R1* R1, with T1* T1
        b = w1_ctx.bundle
        V1 = b.coords[1]
        R1 = V1.R + 1e-3 * np.array([[0.0, 1.0], [1.0, 0.0]])
        V1 = CoordinateSpace.of(V1.F, b.space, V1.dropped, R1)
        assert {"[R1 R1*, T* T] = 0", "[R1* R1, T1* T1] = 0"} <= self.failing(b, V1)

    def test_a_non_commuting_rr_perturbation(self, w1_ctx):
        # a Hermitian perturbation of the stored R1 R1* alone: the measured
        # commutator with T* T fails, and the certificate derived from it is
        # inconclusive, so [R1* R1, T1* T1] is measured from R1 and passes
        b = w1_ctx.bundle
        V1 = b.coords[1]
        V1 = dataclasses.replace(V1, RR=V1.RR + 1e-3 * np.array([[0.0, 1.0], [1.0, 0.0]]))
        failing = self.failing(b, V1)
        assert "[R1 R1*, T* T] = 0" in failing
        assert "[R1* R1, T1* T1] = 0" not in failing


def certificate_instances():
    recipe = load_recipe()
    for seed in range(60):
        for profile in ("diagonal", "jordan", "pontryagin"):
            yield generate(seed, 2 + seed % 11, profile)
    for seed in range(5):
        yield parse_instance(recipe.instance(seed, 24, 2)[0])


def test_certified_entries_bound_what_they_replace():
    # each certified residual against the quantity it stands for, measured
    # here the way the report used to: an SVD of R_j, and the commutators
    # with two products each
    eps = np.finfo(float).eps
    for inst in certificate_instances():
        b = build_bundle(inst.pair)
        report = {name: (resid, bound) for name, resid, bound in b.report}
        V, r = b.coords[0], b.dim_v
        e = report["R1 R1* + R2 R2* = I"][0]
        f_norm = np.linalg.norm(V.F, axis=1).max(initial=0.0)
        for j in (1, 2):
            Vj = b.coords[j]
            R, TTj = Vj.R, Vj.TT
            sv = np.linalg.svd(R, compute_uv=False) if R.size else np.zeros(0)
            # ||R_j|| - 1 <= e / 2, up to the rounding of the stored R_j R_j^*
            rounding = eps * Vj.dim * (r + np.sqrt(r) * e)
            assert sv.max(initial=0.0) - 1.0 <= report[f"||R{j}|| <= 1"][0] + rounding / 2
            if sv.size:
                res = report[f"T{j} = T R{j}"][0]
                # the lower bound on sigma_min(R_j), up to rounding, and far
                # above the rank cut
                low = (np.linalg.norm(Vj.F, axis=1).min() - b.space.norm * res) / f_norm
                assert 1e6 * b.space.tol.rank < low <= sv[-1] * (1 + 1e-12), inst.label
            resid, bound = report[f"[R{j} R{j}*, T* T] = 0"]
            assert abs(resid - fro(Vj.RR @ V.TT - V.TT @ Vj.RR)) <= 1e-6 * bound
            resid, bound = report[f"[R{j}* R{j}, T{j}* T{j}] = 0"]
            RhR = R.conj().T @ R
            assert fro(RhR @ TTj - TTj @ RhR) <= resid <= bound, inst.label


class TestInvariantsOnRandomInstances:
    def test_bundle_report_clean(self):
        for seed in range(12):
            inst = generate(seed, 4 + (seed % 4), ("diagonal", "jordan", "pontryagin")[seed % 3])
            bundle = build_bundle(inst.pair)
            for name, resid, bound in verify_bundle(bundle):
                assert resid <= bound, f"{inst.label}: {name} {resid:.2e} > {bound:.2e}"

    def test_contraction_partition(self):
        for seed in range(8):
            inst = generate(seed, 5, "diagonal")
            b = build_bundle(inst.pair)
            r = b.dim_v
            assert np.allclose(b.coords[1].RR + b.coords[2].RR, np.eye(r), atol=1e-10)
            for j in (1, 2):
                Rj = b.coords[j].R
                if Rj.size:
                    assert np.linalg.norm(Rj, 2) <= 1.0 + 1e-10


def test_degenerate_pair_collapses_completely():
    # p(A) = 0 and q(B) = 0: the whole space is quotiented away
    space = KreinSpace(np.array([[0, 1], [1, 0]], dtype=complex))
    A = np.array([[0, 1], [0, 0]], dtype=complex)
    pair = DefinitizablePair.from_normal(
        space, A, p=RealPoly([0, 0, 1]), q=RealPoly([0, 1])
    )
    b = build_bundle(pair)
    assert b.dim_v == 0
    assert np.allclose(b.expand(np.zeros((0, 0))), np.zeros((2, 2)))

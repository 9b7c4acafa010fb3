import numpy as np
import pytest

from kreincalc import (
    DomainMismatchError,
    NotNormalError,
    augmented_integral,
    diagonalize,
    spectral_integral,
)
from kreincalc.spectral import snap_eigenvalues
from kreincalc.tol import DEFAULT_TOL


def random_normal_matrix(rng, n, values=None):
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, _ = np.linalg.qr(M)
    d = values if values is not None else rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return Q @ np.diag(d) @ Q.conj().T, d


class TestDiagonalize:
    def test_zero_matrix(self):
        data = diagonalize(np.zeros((3, 3)))
        assert len(data.points) == 1
        lam, P = data.points[0]
        assert lam == 0 and np.allclose(P, np.eye(3))

    def test_scalar_matrix(self):
        data = diagonalize((2 - 1j) * np.eye(4))
        assert len(data.points) == 1
        assert data.points[0][0] == pytest.approx(2 - 1j)

    def test_w1_transfer(self, w1_ctx):
        data = w1_ctx.spectral
        assert sorted(data.eigenvalues, key=lambda z: z.real) == [
            pytest.approx(-1 + 3j),
            pytest.approx(1 + 2j),
        ]
        for lam, P in data.points:
            expected = np.diag([1.0, 0.0]) if lam == 1 + 2j else np.diag([0.0, 1.0])
            assert np.allclose(P, expected, atol=1e-12)

    def test_not_normal(self):
        with pytest.raises(NotNormalError):
            diagonalize(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_resolution_invariants_random(self):
        rng = np.random.default_rng(40)
        for _ in range(20):
            n = rng.integers(2, 8)
            M, _ = random_normal_matrix(rng, n)
            data = diagonalize(M)
            assert data.resolution_residual() <= 1e-9
            worst = max(
                np.linalg.norm(M @ P - lam * P) for lam, P in data.points
            )
            assert worst <= 1e-9 * max(1.0, np.linalg.norm(M))

    def test_repeated_eigenvalues_cluster(self):
        rng = np.random.default_rng(41)
        M, _ = random_normal_matrix(rng, 5, values=np.array([1.0, 1.0, 1.0, -2.0, -2.0]))
        data = diagonalize(M)
        assert len(data.points) == 2
        ranks = sorted(int(round(np.trace(P).real)) for _, P in data.points)
        assert ranks == [2, 3]

    def test_close_clusters_warn(self):
        M = np.diag([0.0, 2.5e-7 * (1 + 2.5e-7)]).astype(complex)
        data = diagonalize(M, DEFAULT_TOL)
        assert len(data.points) == 2
        assert data.warnings


class TestSnap:
    def test_snap_moves_matching_points(self):
        data = diagonalize(np.diag([1.0 + 1e-9, 5.0]).astype(complex))
        snapped = snap_eigenvalues(data, [1.0 + 0j], 1e-7)
        assert 1.0 + 0j in snapped.eigenvalues
        assert 5.0 + 0j in snapped.eigenvalues


class TestIntegrals:
    def test_constant_one(self):
        rng = np.random.default_rng(42)
        M, _ = random_normal_matrix(rng, 4)
        data = diagonalize(M)
        assert np.allclose(spectral_integral(data, lambda z: 1.0), np.eye(4), atol=1e-12)

    def test_identity_function_reconstructs(self):
        rng = np.random.default_rng(43)
        M, _ = random_normal_matrix(rng, 5)
        data = diagonalize(M)
        assert np.allclose(spectral_integral(data, lambda z: z), M, atol=1e-9)

    def test_w1_weight_ratio(self, w1_ctx):
        p, q = w1_ctx.pair.p, w1_ctx.pair.q
        h = lambda z: p(z.real) / (p(z.real) + q(z.imag))
        out = spectral_integral(w1_ctx.spectral, h)
        assert np.allclose(out, np.diag([0.5, 1.0]), atol=1e-12)
        assert np.allclose(out, w1_ctx.bundle.rr(1), atol=1e-12)

    def test_mapping_keyed_by_eigenvalues(self, w1_ctx):
        data = w1_ctx.spectral
        h = {lam: 3.0 for lam in data.eigenvalues}
        assert np.allclose(spectral_integral(data, h), 3 * np.eye(2), atol=1e-12)
        with pytest.raises(DomainMismatchError):
            spectral_integral(data, {data.eigenvalues[0]: 1.0})


class TestAugmentedIntegral:
    def test_zero_integrand(self, w1_ctx):
        data = w1_ctx.spectral
        out = augmented_integral(
            data,
            {lam: 0.0 for lam in data.eigenvalues},
            {},
            w1_ctx.bundle.rr(1),
            w1_ctx.bundle.rr(2),
        )
        assert np.allclose(out, 0.0)

    def test_no_critical_points_reduces_to_plain_integral(self, w1_ctx):
        data = w1_ctx.spectral
        h = {lam: complex(i, -i) for i, lam in enumerate(data.eigenvalues)}
        lhs = augmented_integral(data, h, {}, w1_ctx.bundle.rr(1), w1_ctx.bundle.rr(2))
        assert np.allclose(lhs, spectral_integral(data, h), atol=1e-14)

    def test_single_pair_term(self):
        data = diagonalize(np.diag([0.0, 3.0]).astype(complex))
        rr1 = np.diag([0.25, 0.5])
        rr2 = np.eye(2) - rr1
        out = augmented_integral(data, {3.0 + 0j: 0.0}, {0j: (1.0, 0.0)}, rr1, rr2)
        assert np.allclose(out, rr1 @ np.diag([1.0, 0.0]))

    def test_missing_value(self):
        data = diagonalize(np.diag([0.0, 3.0]).astype(complex))
        with pytest.raises(DomainMismatchError):
            augmented_integral(data, {}, {}, np.eye(2), np.zeros((2, 2)))


class TestFactoredMeasure:
    """The factored integrals against the dense sum over eigenprojections."""

    def setup_method(self):
        rng = np.random.default_rng(44)
        values = np.array([2.0, 2.0, 2.0, -1 + 1j, -1 + 1j, 0.5j])
        self.M, _ = random_normal_matrix(rng, 6, values=values)
        self.data = diagonalize(self.M)
        H = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        self.rr1 = (H + H.conj().T) / 10.0
        self.rr2 = np.eye(6) - self.rr1
        self.h = {lam: complex(*rng.standard_normal(2)) for lam in self.data.eigenvalues}

    def test_repeated_eigenvalue_clusters_to_one_atom(self):
        assert len(self.data.eigenvalues) == 3
        assert sorted(np.bincount(self.data.labels)) == [1, 2, 3]

    def test_spectral_integral_matches_dense_sum(self):
        dense = sum(self.h[lam] * P for lam, P in self.data.points)
        assert np.allclose(spectral_integral(self.data, self.h), dense, atol=1e-12)

    def test_augmented_integral_matches_weighted_dense_sum(self):
        crit = self.data.eigenvalues[0]
        g1, g2 = 0.3 - 2j, 1.5 + 0.25j
        dense = np.zeros((6, 6), dtype=complex)
        for lam, P in self.data.points:
            if lam == crit:
                dense += g1 * (self.rr1 @ P) + g2 * (self.rr2 @ P)
            else:
                dense += self.h[lam] * P
        values = {lam: v for lam, v in self.h.items() if lam != crit}
        out = augmented_integral(self.data, values, {crit: (g1, g2)}, self.rr1, self.rr2)
        assert np.allclose(out, dense, atol=1e-12)

    def test_missing_value_still_raises(self):
        values = dict(list(self.h.items())[1:])
        with pytest.raises(DomainMismatchError):
            augmented_integral(self.data, values, {}, self.rr1, self.rr2)

    def test_factors_are_read_only(self):
        assert not self.data.Q.flags.writeable
        assert not self.data.labels.flags.writeable

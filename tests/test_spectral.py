import numpy as np
import pytest
from kreincalc import (
    DomainMismatchError,
    NotNormalError,
    diagonalize,
    spectral_integral,
)
from kreincalc import spectral
from kreincalc.spectral import snap_eigenvalues
from kreincalc.tol import DEFAULT_TOL

from calculus_reference import augmented_integral
from conftest import assert_same_set


def points(data):
    """``(eigenvalue, projection)`` of every cluster."""
    return list(zip(data.centers, data.projections()))


def random_normal_matrix(rng, n, values=None):
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, _ = np.linalg.qr(M)
    d = values if values is not None else rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return Q @ np.diag(d) @ Q.conj().T, d


class TestDiagonalize:
    def test_zero_matrix(self):
        data = diagonalize(np.zeros((3, 3)))
        assert len(points(data)) == 1
        lam, P = points(data)[0]
        assert lam == 0 and np.allclose(P, np.eye(3))

    def test_scalar_matrix(self):
        data = diagonalize((2 - 1j) * np.eye(4))
        assert len(points(data)) == 1
        assert points(data)[0][0] == pytest.approx(2 - 1j)

    def test_w1_transfer(self, w1_ctx):
        data = w1_ctx.spectral
        assert sorted(data.eigenvalues, key=lambda z: z.real) == [
            pytest.approx(-1 + 3j),
            pytest.approx(1 + 2j),
        ]
        for lam, P in points(data):
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
                np.linalg.norm(M @ P - lam * P) for lam, P in points(data)
            )
            assert worst <= 1e-9 * max(1.0, np.linalg.norm(M))

    def test_repeated_eigenvalues_cluster(self):
        rng = np.random.default_rng(41)
        M, _ = random_normal_matrix(rng, 5, values=np.array([1.0, 1.0, 1.0, -2.0, -2.0]))
        data = diagonalize(M)
        assert len(points(data)) == 2
        ranks = sorted(int(round(np.trace(P).real)) for _, P in points(data))
        assert ranks == [2, 3]

    def test_close_clusters_warn(self):
        M = np.diag([0.0, 2.5e-7 * (1 + 2.5e-7)]).astype(complex)
        data = diagonalize(M, DEFAULT_TOL)
        assert len(points(data)) == 2
        assert data.warnings


def group_gap(M, tol=DEFAULT_TOL):
    """The real-part gap above which diagonalize splits eigh groups."""
    M = np.asarray(M, dtype=complex)
    scale = max(np.linalg.norm(M), 1.0)
    comm = np.linalg.norm(M @ M.conj().T - M.conj().T @ M)
    return 100 * max(np.finfo(float).eps * scale, comm / scale) / tol.rel


def count_schur_calls(monkeypatch):
    sizes = []
    schur = spectral._schur_vectors

    def counting(B):
        sizes.append(B.shape[0])
        return schur(B)

    monkeypatch.setattr(spectral, "_schur_vectors", counting)
    return sizes


class TestEigenbasis:
    """diagonalize through eigh of the real part, Schur forms per group."""

    def test_lattice_with_shared_real_parts(self, monkeypatch):
        # 3 real parts x 4 imaginary parts, two points doubled: 14 eigenvalues
        # in 3 groups of equal real part
        lattice = [x + 1j * y for x in (-1.0, 0.5, 2.0) for y in (-1.5, 0.0, 0.5, 3.0)]
        values = np.array(lattice + [lattice[0], lattice[5]])
        M, _ = random_normal_matrix(np.random.default_rng(45), values.size, values=values)
        sizes = count_schur_calls(monkeypatch)
        data = diagonalize(M)
        assert sorted(sizes) == [4, 5, 5]
        assert_same_set(data.centers, lattice, 1e-12)
        assert sorted(np.bincount(data.labels)) == [1] * 10 + [2, 2]
        assert data.resolution_residual() <= 1e-12
        assert np.allclose(spectral_integral(data, data.centers), M, atol=1e-12)

    @pytest.mark.parametrize("factor, schur_sizes", [(2.0, []), (0.5, [2])])
    def test_real_parts_either_side_of_the_group_gap(self, monkeypatch, factor, schur_sizes):
        rng = np.random.default_rng(46)
        base = np.array([1.0, 1.0 + 2j])
        M, _ = random_normal_matrix(rng, 2, values=base)
        delta = factor * group_gap(M)
        values = base + np.array([0.0, delta])
        M, _ = random_normal_matrix(rng, 2, values=values)
        assert (delta > group_gap(M)) == (factor > 1)
        sizes = count_schur_calls(monkeypatch)
        data = diagonalize(M)
        assert sizes == schur_sizes
        assert_same_set(data.centers, values, 1e-12)
        assert data.resolution_residual() <= 1e-12

    def test_near_normal_pair_inside_the_widened_gap(self, monkeypatch):
        # normal only up to a self-commutator of 1.4e-12, within rel: split
        # at 1e-4, eigh's vectors would leave an off-diagonal of 7e-9 > rel,
        # but the gap grows with the self-commutator to 0.14, so one Schur
        # form diagonalizes it
        M = np.array([[0.0, 1e-12], [0.0, 1e-4 + 1j]])
        assert 1e-4 < group_gap(M) / 1000
        sizes = count_schur_calls(monkeypatch)
        data = diagonalize(M)
        assert sizes == [2]
        assert_same_set(data.centers, [0.0, 1e-4 + 1j], 1e-11)

    def test_near_normal_pair_just_over_the_widened_gap(self, monkeypatch):
        # the same departure from normality with real parts 0.3 apart, twice
        # the gap: eigh alone splits it and the certificate holds
        M = np.array([[0.0, 1e-12], [0.0, 0.3 + 1j]])
        assert 1.5 * group_gap(M) < 0.3 < 3 * group_gap(M)
        sizes = count_schur_calls(monkeypatch)
        data = diagonalize(M)
        assert sizes == []
        assert_same_set(data.centers, [0.0, 0.3 + 1j], 1e-11)

    def test_chain_just_over_the_gap_certifies(self):
        # real parts 2g apart with imaginary parts far apart: the eigh
        # vectors of each group are rotated by at most rel / 200
        rng = np.random.default_rng(47)
        k = np.arange(6)
        M0, _ = random_normal_matrix(rng, 6, values=1.0 + 3j * k)
        values = 1.0 + 2 * group_gap(M0) * k + 3j * k
        M, _ = random_normal_matrix(rng, 6, values=values)
        data = diagonalize(M)
        assert_same_set(data.centers, values, 1e-12)
        assert np.allclose(spectral_integral(data, data.centers), M, atol=1e-12)

    def test_empty(self):
        data = diagonalize(np.zeros((0, 0)))
        assert (data.dim, data.centers, data.Q.shape, data.labels.shape) == (0, (), (0, 0), (0,))

    def test_one_by_one(self):
        data = diagonalize(np.array([[2.0 - 3.0j]]))
        assert data.centers == (2.0 - 3.0j,)
        assert abs(abs(data.Q[0, 0]) - 1.0) <= 1e-15 and data.labels.tolist() == [0]

    @pytest.mark.parametrize("M", [
        np.array([[0.0, 1e-6], [0.0, 0.0]]),  # a double eigenvalue
        np.array([[0.0, 1e-7], [0.0, 1e-3]]),  # distinct real parts inside the gap
    ])
    def test_certificate_catches_what_the_self_commutator_lets_through(self, M):
        M = M.astype(complex)
        comm = np.linalg.norm(M @ M.conj().T - M.conj().T @ M)
        assert comm <= DEFAULT_TOL.rel * max(np.linalg.norm(M), 1.0) ** 2
        with pytest.raises(NotNormalError, match="off-diagonal"):
            diagonalize(M)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_raise(self, bad):
        with pytest.raises(ValueError, match="infs or NaNs"):
            diagonalize(np.array([[1.0, 0.0], [0.0, bad]]))

    def test_non_normal_lattice_raises(self):
        rng = np.random.default_rng(48)
        M, _ = random_normal_matrix(rng, 6, values=np.array([1, 1, 1j, 2j, 2, 2 + 1j]))
        M[0, 5] += 1e-3
        with pytest.raises(NotNormalError):
            diagonalize(M)


class TestSnap:
    def test_snap_moves_matching_points(self):
        data = diagonalize(np.diag([1.0 + 1e-9, 5.0]).astype(complex))
        snapped, pinned = snap_eigenvalues(data, [1.0 + 0j], 1e-7)
        assert 1.0 + 0j in snapped.eigenvalues
        assert 5.0 + 0j in snapped.eigenvalues
        assert pinned == (0, None)


class TestIntegrals:
    def test_constant_one(self):
        rng = np.random.default_rng(42)
        M, _ = random_normal_matrix(rng, 4)
        data = diagonalize(M)
        ones = np.ones(len(data.centers))
        assert np.allclose(spectral_integral(data, ones), np.eye(4), atol=1e-12)

    def test_identity_function_reconstructs(self):
        rng = np.random.default_rng(43)
        M, _ = random_normal_matrix(rng, 5)
        data = diagonalize(M)
        assert np.allclose(spectral_integral(data, data.centers), M, atol=1e-9)

    def test_w1_weight_ratio(self, w1_ctx):
        p, q = w1_ctx.pair.p, w1_ctx.pair.q
        h = [p(z.real) / (p(z.real) + q(z.imag)) for z in w1_ctx.spectral.centers]
        out = spectral_integral(w1_ctx.spectral, h)
        assert np.allclose(out, np.diag([0.5, 1.0]), atol=1e-12)
        assert np.allclose(out, w1_ctx.bundle.coords[1].RR, atol=1e-12)

    def test_one_weight_per_eigenvalue(self, w1_ctx):
        data = w1_ctx.spectral
        h = np.full(len(data.eigenvalues), 3.0)
        assert np.allclose(spectral_integral(data, h), 3 * np.eye(2), atol=1e-12)
        with pytest.raises(DomainMismatchError):
            spectral_integral(data, [1.0])


def none_critical(data):
    return np.zeros(len(data.centers), dtype=bool)


def no_pairs(data):
    return np.zeros((len(data.centers), 2))


class TestAugmentedIntegral:
    def test_zero_integrand(self, w1_ctx):
        data = w1_ctx.spectral
        out = augmented_integral(
            data,
            np.zeros(len(data.eigenvalues)),
            no_pairs(data),
            none_critical(data),
            w1_ctx.bundle.coords[1].RR,
            w1_ctx.bundle.coords[2].RR,
        )
        assert np.allclose(out, 0.0)

    def test_no_critical_points_reduces_to_plain_integral(self, w1_ctx):
        data = w1_ctx.spectral
        h = np.array([complex(i, -i) for i in range(len(data.eigenvalues))])
        lhs = augmented_integral(
            data, h, no_pairs(data), none_critical(data),
            w1_ctx.bundle.coords[1].RR, w1_ctx.bundle.coords[2].RR,
        )
        assert np.allclose(lhs, spectral_integral(data, h), atol=1e-14)

    def test_single_pair_term(self):
        data = diagonalize(np.diag([0.0, 3.0]).astype(complex))
        assert data.centers == (0j, 3.0 + 0j)
        rr1 = np.diag([0.25, 0.5])
        rr2 = np.eye(2) - rr1
        out = augmented_integral(data, [0.0, 0.0], [(1.0, 0.0), (0.0, 0.0)], [True, False], rr1, rr2)
        assert np.allclose(out, rr1 @ np.diag([1.0, 0.0]))

    def test_missing_value(self):
        data = diagonalize(np.diag([0.0, 3.0]).astype(complex))
        with pytest.raises(DomainMismatchError):
            augmented_integral(data, [], no_pairs(data), none_critical(data), np.eye(2),
                               np.zeros((2, 2)))


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
        self.h = rng.standard_normal(len(self.data.eigenvalues)) * (1 + 0j)
        self.h += 1j * rng.standard_normal(len(self.data.eigenvalues))

    def test_repeated_eigenvalue_clusters_to_one_atom(self):
        assert len(self.data.eigenvalues) == 3
        assert sorted(np.bincount(self.data.labels)) == [1, 2, 3]

    def test_spectral_integral_matches_dense_sum(self):
        dense = sum(h * P for h, P in zip(self.h, self.data.projections()))
        assert np.allclose(spectral_integral(self.data, self.h), dense, atol=1e-12)

    def test_augmented_integral_matches_weighted_dense_sum(self):
        g1, g2 = 0.3 - 2j, 1.5 + 0.25j
        dense = np.zeros((6, 6), dtype=complex)
        for i, P in enumerate(self.data.projections()):
            if i == 0:
                dense += g1 * (self.rr1 @ P) + g2 * (self.rr2 @ P)
            else:
                dense += self.h[i] * P
        critical = np.arange(3) == 0
        g = np.zeros((3, 2), dtype=complex)
        g[0] = g1, g2
        # the scalar weight of a critical eigenvalue is ignored
        out = augmented_integral(self.data, self.h, g, critical, self.rr1, self.rr2)
        assert np.allclose(out, dense, atol=1e-12)

    def test_missing_value_still_raises(self):
        critical = np.zeros(3, dtype=bool)
        with pytest.raises(DomainMismatchError):
            augmented_integral(self.data, self.h[1:], np.zeros((3, 2)), critical, self.rr1,
                               self.rr2)

    def test_projection_stack_matches_each_projection(self):
        P = self.data.projections()
        assert P.shape == (3, 6, 6)
        for i in range(3):
            V = self.data.Q[:, self.data.labels == i]
            assert np.allclose(P[i], V @ V.conj().T, rtol=0, atol=1e-14)
        empty = diagonalize(np.zeros((0, 0)))
        assert empty.projections().shape == (0, 0, 0)
        assert empty.resolution_residual() == 0.0

    def test_factors_are_read_only(self):
        assert not self.data.Q.flags.writeable
        assert not self.data.labels.flags.writeable
